//! Conservative virtual-time engine.
//!
//! Exoshuffle's control plane is *application code*: the shuffle libraries
//! are ordinary imperative programs that submit tasks, `wait` for rounds to
//! drain, and `get` results. To run such programs against a discrete-event
//! simulation we use a conservative virtual-time scheme:
//!
//! - The **engine thread** owns all simulation state and the event queue.
//! - **Driver threads** run user code and interact with the simulation only
//!   through a command channel; every command carries a [`Reply`] channel
//!   the driver blocks on.
//! - The virtual clock advances **only when every attached driver is parked
//!   waiting for a reply**. Driver compute between calls takes zero virtual
//!   time, matching how the paper treats driver-side logic.
//! - A simulation may hand pure work to other threads, as `exo-rt` does
//!   with task closures: they no longer run on the engine thread, but they
//!   still take zero virtual time, because the engine collects each result
//!   at a fixed event and blocks there until it is ready.
//!
//! The result: with a single driver, a run is a deterministic function of
//! the program and the simulation — no wall-clock leakage, no racy
//! interleavings.
//!
//! The simulation behind the channel is pluggable via the [`Simulation`]
//! trait; `exo-rt`'s distributed-futures runtime is its one implementor
//! outside this module's tests.

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};

use crate::queue::{EventQueue, TableFootprint};
use crate::time::{SimDuration, SimTime};

/// Identifier for an attached driver thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DriverId(pub u64);

/// One-shot reply channel handed to the simulation inside a command.
///
/// The simulation **must** answer every `Reply` exactly once via
/// [`Ctx::reply`] (immediately or from a later event); the issuing driver
/// stays parked until it does.
pub struct Reply<T> {
    driver: DriverId,
    tx: Sender<T>,
}

impl<T> Reply<T> {
    /// The driver awaiting this reply.
    pub fn driver(&self) -> DriverId {
        self.driver
    }
}

impl<T> std::fmt::Debug for Reply<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Reply(driver={})", self.driver.0)
    }
}

/// A pluggable simulation: reacts to driver commands and to its own
/// scheduled events, mutating state and scheduling further events.
pub trait Simulation: Sized {
    /// Events the simulation schedules for itself.
    type Event: Send + 'static;
    /// Commands drivers send (each embedding any `Reply` channels).
    type Command: Send + 'static;

    /// Handle a driver command at the current virtual time.
    fn on_command(&mut self, ctx: &mut Ctx<'_, Self::Event>, cmd: Self::Command);

    /// Handle a scheduled event at its fire time.
    fn on_event(&mut self, ctx: &mut Ctx<'_, Self::Event>, ev: Self::Event);

    /// Called when all drivers are parked and the event queue is empty —
    /// a deadlock unless the simulation can make progress here. Return
    /// `true` if progress was made (events scheduled or drivers woken).
    fn on_stalled(&mut self, _ctx: &mut Ctx<'_, Self::Event>) -> bool {
        false
    }

    /// Diagnostic lines attached to the [`Deadlock`] error when the stall
    /// is final. Implementations can report pending driver calls, stuck
    /// task state, and recently traced events; the default reports
    /// nothing.
    fn deadlock_report(&self) -> Vec<String> {
        Vec::new()
    }

    /// Called for each event still queued when the last driver detaches,
    /// in fire order, with the context's clock at its fire time. Handle
    /// it and return `true` (it counts as dispatched and advances the
    /// engine clock), or return `false` to discard it. Used for
    /// completion-style events whose accounting would otherwise be lost —
    /// e.g. in-flight final-stage disk writes — while far-future timers
    /// (wait deadlines, scheduled failures) stay discarded so the final
    /// virtual time is not dragged out past the run. A discarded event
    /// may still schedule: the head of a [`crate::Resource`] completion
    /// ring arms the next op behind it. The default discards everything.
    fn drain_on_shutdown(&mut self, _ctx: &mut Ctx<'_, Self::Event>, _ev: Self::Event) -> bool {
        false
    }

    /// Called once after the shutdown drain, with the event queue's
    /// footprint, before the engine returns the simulation. The default
    /// ignores it.
    fn on_shutdown(&mut self, _queue: TableFootprint) {}
}

/// Handler context: the current time plus scheduling and reply capabilities.
pub struct Ctx<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    woken: &'a mut u64,
}

impl<'a, E> Ctx<'a, E> {
    pub(crate) fn new(now: SimTime, queue: &'a mut EventQueue<E>, woken: &'a mut u64) -> Self {
        Ctx { now, queue, woken }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule an event `delay` from now.
    pub fn schedule(&mut self, delay: SimDuration, ev: E) {
        self.queue.schedule_after(self.now, delay, ev);
    }

    /// Schedule an event at an absolute time (clamped to now if in the
    /// past, since time never rewinds).
    pub fn schedule_at(&mut self, at: SimTime, ev: E) {
        self.queue.schedule_at(at.max(self.now), ev);
    }

    /// See [`EventQueue::reserve`].
    pub(crate) fn reserve_seq(&mut self) -> u64 {
        self.queue.reserve()
    }

    /// Schedules `ev` at `at` (never before now) under a reserved number.
    pub(crate) fn schedule_reserved(&mut self, at: SimTime, seq: u64, ev: E) {
        debug_assert!(at >= self.now, "a reserved event cannot fire in the past");
        self.queue.schedule_reserved(at, seq, ev);
    }

    /// Answer a driver's pending command, unparking it.
    pub fn reply<T>(&mut self, reply: Reply<T>, value: T) {
        // The driver may already be gone (e.g. it panicked); that must not
        // take down the simulation.
        let _ = reply.tx.send(value);
        *self.woken += 1;
    }
}

/// All drivers parked with no way to make progress — a bug in the driver
/// program or the simulation.
#[derive(Clone, Debug)]
pub struct Deadlock {
    /// Virtual time at which the deadlock was detected.
    pub at: SimTime,
    /// Number of drivers left parked.
    pub parked_drivers: u64,
    /// Diagnostic lines from [`Simulation::deadlock_report`]: pending
    /// driver calls, stuck task/node state, recent trace events.
    pub detail: Vec<String>,
}

impl std::fmt::Display for Deadlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "virtual-time deadlock at {}: {} driver(s) parked, no events pending",
            self.at, self.parked_drivers
        )?;
        for line in &self.detail {
            write!(f, "\n  {line}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Deadlock {}

enum EngineMsg<C> {
    Attach,
    Detach,
    Cmd(C),
    /// Fire-and-forget command: the driver does not park. FIFO order with
    /// the driver's other messages is preserved (same channel), and the
    /// clock cannot advance while the poster keeps running, so posts are
    /// deterministic for single-driver programs.
    Post(C),
}

/// Connection a driver thread uses to issue commands.
///
/// Cloning is allowed so that RAII handles (e.g. `ObjectRef`) can issue
/// release commands, but all clones must stay on the **same logical driver
/// thread**: the engine counts one running/parked state per attached
/// driver, and concurrent calls from two threads over one connection would
/// corrupt that accounting.
pub struct DriverConn<C> {
    inner: std::sync::Arc<ConnInner<C>>,
}

struct ConnInner<C> {
    id: DriverId,
    tx: Sender<EngineMsg<C>>,
}

impl<C> Clone for DriverConn<C> {
    fn clone(&self) -> Self {
        DriverConn {
            inner: self.inner.clone(),
        }
    }
}

impl<C: Send + 'static> DriverConn<C> {
    /// Issue a command built around a fresh [`Reply`] and block until the
    /// simulation answers.
    pub fn call<T>(&self, make: impl FnOnce(Reply<T>) -> C) -> T {
        let (tx, rx) = bounded(1);
        let cmd = make(Reply {
            driver: self.inner.id,
            tx,
        });
        // audit:allow(P01): cross-thread channel to the engine — a dead
        // engine is unrecoverable for the driver, and aborting with
        // context beats hanging on a channel that will never drain.
        self.inner
            .tx
            .send(EngineMsg::Cmd(cmd))
            .expect("engine terminated while driver still issuing commands");
        // audit:allow(P01): a dropped reply means the engine died or the
        // simulation deadlocked; there is no value to return and no
        // caller that could recover.
        rx.recv()
            .expect("engine dropped a pending reply (simulation bug or deadlock)")
    }

    /// Post a command without waiting for a reply (for RAII releases and
    /// other notifications that need no answer).
    pub fn post(&self, cmd: C) {
        // Engine may already be gone on teardown paths; dropping the
        // notification is then harmless.
        let _ = self.inner.tx.send(EngineMsg::Post(cmd));
    }

    /// This driver's id.
    pub fn id(&self) -> DriverId {
        self.inner.id
    }
}

impl<C> Drop for ConnInner<C> {
    fn drop(&mut self) {
        // Engine may already be gone on panic paths; ignore.
        let _ = self.tx.send(EngineMsg::Detach);
    }
}

/// Factory for driver connections, usable before and during `run`.
pub struct DriverSpawner<C> {
    tx: Sender<EngineMsg<C>>,
    next_id: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl<C> Clone for DriverSpawner<C> {
    fn clone(&self) -> Self {
        DriverSpawner {
            tx: self.tx.clone(),
            next_id: self.next_id.clone(),
        }
    }
}

impl<C: Send + 'static> DriverSpawner<C> {
    /// Attach a new driver; the returned connection should move to exactly
    /// one thread.
    pub fn connect(&self) -> DriverConn<C> {
        let id = DriverId(
            self.next_id
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        );
        // audit:allow(P01): attaching to a dead engine is a driver
        // lifecycle bug; no connection can be handed back.
        self.tx.send(EngineMsg::Attach).expect("engine terminated");
        DriverConn {
            inner: std::sync::Arc::new(ConnInner {
                id,
                tx: self.tx.clone(),
            }),
        }
    }
}

/// Process-wide total of events + commands dispatched by every engine
/// run that has finished in this process. Flushed once per run (not per
/// event) so the hot loop stays free of shared-memory traffic; benches
/// read deltas around runs to report sim-events/sec.
static DISPATCH_TOTAL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Cumulative events + commands dispatched by completed engine runs in
/// this process (monotone, never reset; see [`Engine::run`]).
pub fn dispatch_total() -> u64 {
    DISPATCH_TOTAL.load(std::sync::atomic::Ordering::Relaxed)
}

/// The virtual-time event loop.
pub struct Engine<S: Simulation> {
    sim: S,
    queue: EventQueue<S::Event>,
    now: SimTime,
    rx: Receiver<EngineMsg<S::Command>>,
    /// Drivers attached and not yet detached.
    live: u64,
    /// Drivers currently running user code (not parked in a call).
    running: u64,
    /// Events processed (diagnostics; printed under EXO_SIM_TRACE).
    events_processed: u64,
    /// Commands processed (diagnostics).
    commands_processed: u64,
    trace: bool,
}

impl<S: Simulation> Engine<S> {
    /// Create an engine around `sim`, plus a spawner for driver threads.
    pub fn new(sim: S) -> (Engine<S>, DriverSpawner<S::Command>) {
        let (tx, rx) = unbounded();
        let spawner = DriverSpawner {
            tx,
            next_id: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
        };
        (
            Engine {
                sim,
                queue: EventQueue::new(),
                now: SimTime::ZERO,
                rx,
                live: 0,
                running: 0,
                events_processed: 0,
                commands_processed: 0,
                trace: std::env::var_os("EXO_SIM_TRACE").is_some(),
            },
            spawner,
        )
    }

    /// Run until every attached driver has detached. Returns the simulation
    /// state and the final virtual time.
    ///
    /// # Errors
    ///
    /// Returns [`Deadlock`] when all drivers are parked, no events are
    /// pending, and the simulation's `on_stalled` cannot make progress. The
    /// simulation state is dropped on that path, which closes all pending
    /// reply channels so parked driver threads wake (and fail) instead of
    /// hanging.
    pub fn run(mut self) -> Result<(S, SimTime), Deadlock> {
        // Hold our own sender only as long as needed to hand out spawners;
        // from here, channel disconnect means all conns + spawners dropped.
        loop {
            // Drain everything already queued.
            while let Ok(msg) = self.rx.try_recv() {
                self.handle_msg(msg);
            }
            if self.live == 0 {
                // The returned end time is when the last driver detached;
                // the drain below may advance the internal clock further,
                // but that tail is bookkeeping, not program runtime.
                let end = self.now;
                self.drain_shutdown_events();
                self.sim.on_shutdown(self.queue.footprint());
                self.flush_dispatch_total();
                return Ok((self.sim, end));
            }
            if self.running > 0 {
                // Some driver is computing; its next command (or detach)
                // is the only thing that can move the simulation forward.
                match self.rx.recv() {
                    Ok(msg) => self.handle_msg(msg),
                    Err(_) => break,
                }
                continue;
            }
            // Every driver parked: advance virtual time.
            if let Some((t, ev)) = self.queue.pop() {
                debug_assert!(t >= self.now, "time went backwards");
                self.now = t;
                self.events_processed += 1;
                if self.trace && self.events_processed.is_multiple_of(20_000) {
                    eprintln!(
                        "[exo-sim] {} events, {} commands, vtime {}, queue {}",
                        self.events_processed,
                        self.commands_processed,
                        self.now,
                        self.queue.len()
                    );
                }
                let mut woken = 0;
                let mut ctx = Ctx::new(self.now, &mut self.queue, &mut woken);
                self.sim.on_event(&mut ctx, ev);
                self.running += woken;
            } else {
                let mut woken = 0;
                let mut ctx = Ctx::new(self.now, &mut self.queue, &mut woken);
                let progressed = self.sim.on_stalled(&mut ctx);
                self.running += woken;
                if !progressed && woken == 0 {
                    self.flush_dispatch_total();
                    let deadlock = Deadlock {
                        at: self.now,
                        parked_drivers: self.live,
                        detail: self.sim.deadlock_report(),
                    };
                    // Dropping the simulation drops every pending `Reply`
                    // sender, waking parked drivers with a channel error so
                    // nothing hangs.
                    drop(self.sim);
                    return Err(deadlock);
                }
            }
        }
        self.sim.on_shutdown(self.queue.footprint());
        self.flush_dispatch_total();
        Ok((self.sim, self.now))
    }

    /// Folds this run's dispatch counters into the process-wide
    /// [`dispatch_total`] exactly once, on every `run()` exit path.
    fn flush_dispatch_total(&mut self) {
        DISPATCH_TOTAL.fetch_add(
            self.events_processed + self.commands_processed,
            std::sync::atomic::Ordering::Relaxed,
        );
        self.events_processed = 0;
        self.commands_processed = 0;
    }

    /// After the last driver detaches, offer every queued event to
    /// [`Simulation::drain_on_shutdown`] in fire order. The events it
    /// handles advance the clock and count as dispatched, so final-stage
    /// accounting like trailing disk writes lands before the simulation
    /// state is returned.
    fn drain_shutdown_events(&mut self) {
        while let Some((t, ev)) = self.queue.pop() {
            debug_assert!(t >= self.now, "time went backwards");
            let mut woken = 0;
            let mut ctx = Ctx::new(t, &mut self.queue, &mut woken);
            if self.sim.drain_on_shutdown(&mut ctx, ev) {
                self.now = t;
                self.events_processed += 1;
            }
        }
    }

    fn handle_msg(&mut self, msg: EngineMsg<S::Command>) {
        match msg {
            EngineMsg::Attach => {
                self.live += 1;
                self.running += 1;
            }
            EngineMsg::Detach => {
                self.live -= 1;
                self.running -= 1;
            }
            EngineMsg::Post(cmd) => {
                self.commands_processed += 1;
                let mut woken = 0;
                let mut ctx = Ctx::new(self.now, &mut self.queue, &mut woken);
                self.sim.on_command(&mut ctx, cmd);
                self.running += woken;
            }
            EngineMsg::Cmd(cmd) => {
                // The sender is now parked in `call`.
                self.commands_processed += 1;
                if self.trace && self.commands_processed.is_multiple_of(20_000) {
                    eprintln!(
                        "[exo-sim] {} commands, {} events, vtime {}",
                        self.commands_processed, self.events_processed, self.now
                    );
                }
                self.running -= 1;
                let mut woken = 0;
                let mut ctx = Ctx::new(self.now, &mut self.queue, &mut woken);
                self.sim.on_command(&mut ctx, cmd);
                self.running += woken;
            }
        }
    }
}

/// Run `sim` with a single driver closure; the common case for experiments
/// and tests. Returns `(sim, final_time, driver_result)`.
pub fn run_with_driver<S, F, R>(sim: S, driver: F) -> (S, SimTime, R)
where
    S: Simulation + Send,
    F: FnOnce(DriverConn<S::Command>) -> R + Send,
    R: Send,
{
    let (engine, spawner) = Engine::new(sim);
    let conn = spawner.connect();
    drop(spawner);
    std::thread::scope(|scope| {
        let handle = scope.spawn(move || driver(conn));
        let run = engine.run();
        let joined = handle.join();
        match run {
            Ok((sim, end)) => {
                // audit:allow(P01): re-raises the driver thread's own
                // panic on the caller; suppressing it would report a
                // bogus success.
                let result = joined.expect("driver thread panicked");
                (sim, end, result)
            }
            // audit:allow(P01): a deadlock is terminal — the virtual
            // clock cannot advance and there is no resume path; the
            // panic carries the full stall diagnostic.
            Err(dl) => panic!("{dl}"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy simulation: drivers can sleep for a virtual duration and read
    /// the clock.
    struct TimerSim {
        sleeps: u64,
    }

    enum TimerCmd {
        Sleep(SimDuration, Reply<SimTime>),
        Now(Reply<SimTime>),
    }

    impl Simulation for TimerSim {
        type Event = Reply<SimTime>;
        type Command = TimerCmd;

        fn on_command(&mut self, ctx: &mut Ctx<'_, Self::Event>, cmd: TimerCmd) {
            match cmd {
                TimerCmd::Sleep(d, reply) => {
                    self.sleeps += 1;
                    ctx.schedule(d, reply);
                }
                TimerCmd::Now(reply) => {
                    let now = ctx.now();
                    ctx.reply(reply, now);
                }
            }
        }

        fn on_event(&mut self, ctx: &mut Ctx<'_, Self::Event>, ev: Self::Event) {
            let now = ctx.now();
            ctx.reply(ev, now);
        }
    }

    #[test]
    fn virtual_sleep_advances_clock_without_wall_time() {
        let wall = std::time::Instant::now();
        let (sim, end, woke_at) = run_with_driver(TimerSim { sleeps: 0 }, |conn| {
            let t0: SimTime = conn.call(TimerCmd::Now);
            assert_eq!(t0, SimTime::ZERO);
            // Sleep a virtual hour.
            conn.call(|r| TimerCmd::Sleep(SimDuration::from_secs(3600), r))
        });
        assert_eq!(woke_at, SimTime(3_600_000_000));
        assert_eq!(end, SimTime(3_600_000_000));
        assert_eq!(sim.sleeps, 1);
        // A virtual hour should cost well under a wall second.
        assert!(wall.elapsed().as_secs() < 5);
    }

    #[test]
    fn sequential_sleeps_accumulate() {
        let (_, end, times) = run_with_driver(TimerSim { sleeps: 0 }, |conn| {
            let mut times = Vec::new();
            for i in 1..=5u64 {
                times.push(conn.call(|r| TimerCmd::Sleep(SimDuration::from_secs(i), r)));
            }
            times
        });
        let expect: Vec<SimTime> = vec![
            SimTime(1_000_000),
            SimTime(3_000_000),
            SimTime(6_000_000),
            SimTime(10_000_000),
            SimTime(15_000_000),
        ];
        assert_eq!(times, expect);
        assert_eq!(end, SimTime(15_000_000));
    }

    #[test]
    fn two_drivers_interleave_on_the_same_clock() {
        let (engine, spawner) = Engine::new(TimerSim { sleeps: 0 });
        let a = spawner.connect();
        let b = spawner.connect();
        drop(spawner);
        std::thread::scope(|scope| {
            let ha = scope.spawn(move || {
                conn_sleep(&a, 10) // wakes at 10s
            });
            let hb = scope.spawn(move || {
                conn_sleep(&b, 4); // wakes at 4s
                conn_sleep(&b, 2) // wakes at 6s
            });
            let (sim, end) = engine.run().expect("no deadlock");
            assert_eq!(ha.join().unwrap(), SimTime(10_000_000));
            assert_eq!(hb.join().unwrap(), SimTime(6_000_000));
            assert_eq!(end, SimTime(10_000_000));
            assert_eq!(sim.sleeps, 3);
        });

        fn conn_sleep(c: &DriverConn<TimerCmd>, secs: u64) -> SimTime {
            c.call(|r| TimerCmd::Sleep(SimDuration::from_secs(secs), r))
        }
    }

    #[test]
    fn engine_exits_when_driver_finishes_without_blocking() {
        let (sim, end, _) = run_with_driver(TimerSim { sleeps: 0 }, |_conn| {
            // Do nothing; just detach.
        });
        assert_eq!(end, SimTime::ZERO);
        assert_eq!(sim.sleeps, 0);
    }

    /// A simulation with two event flavours: `Completion` opts into the
    /// shutdown drain, `Timer` does not.
    struct DrainSim {
        completions: u64,
        timers: u64,
    }

    enum DrainEv {
        Completion,
        Timer,
    }

    enum DrainCmd {
        /// Schedule a completion at +1s and a timer at +100s, then return.
        Kick(Reply<()>),
    }

    impl Simulation for DrainSim {
        type Event = DrainEv;
        type Command = DrainCmd;

        fn on_command(&mut self, ctx: &mut Ctx<'_, DrainEv>, cmd: DrainCmd) {
            let DrainCmd::Kick(reply) = cmd;
            ctx.schedule(SimDuration::from_secs(1), DrainEv::Completion);
            ctx.schedule(SimDuration::from_secs(100), DrainEv::Timer);
            ctx.reply(reply, ());
        }

        fn on_event(&mut self, _ctx: &mut Ctx<'_, DrainEv>, ev: DrainEv) {
            match ev {
                DrainEv::Completion => self.completions += 1,
                DrainEv::Timer => self.timers += 1,
            }
        }

        fn drain_on_shutdown(&mut self, ctx: &mut Ctx<'_, DrainEv>, ev: DrainEv) -> bool {
            let drains = matches!(ev, DrainEv::Completion);
            if drains {
                self.on_event(ctx, ev);
            }
            drains
        }
    }

    #[test]
    fn shutdown_drains_opted_in_events_and_discards_the_rest() {
        let (sim, end, ()) = run_with_driver(
            DrainSim {
                completions: 0,
                timers: 0,
            },
            |conn| {
                conn.call(DrainCmd::Kick);
                // Detach with both events still queued.
            },
        );
        assert_eq!(sim.completions, 1, "in-flight completion must drain");
        assert_eq!(sim.timers, 0, "far-future timer must be discarded");
        // The reported end time is when the driver detached — the drained
        // completion's fire time is bookkeeping, not program runtime.
        assert_eq!(end, SimTime::ZERO);
    }

    /// A simulation that never answers — must be detected as deadlock.
    struct BlackHole {
        parked: Vec<Reply<()>>,
    }
    impl Simulation for BlackHole {
        type Event = ();
        type Command = Reply<()>;
        fn on_command(&mut self, _ctx: &mut Ctx<'_, ()>, cmd: Reply<()>) {
            // Park the reply forever: schedule nothing, never answer.
            self.parked.push(cmd);
        }
        fn on_event(&mut self, _ctx: &mut Ctx<'_, ()>, _ev: ()) {}
    }

    #[test]
    fn deadlock_is_detected_not_hung() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_with_driver(BlackHole { parked: Vec::new() }, |conn| conn.call(|r| r))
        }));
        assert!(result.is_err(), "expected deadlock panic");
    }

    /// Like BlackHole, but explains itself — the report must reach the
    /// deadlock panic message.
    struct TalkativeBlackHole {
        parked: Vec<Reply<()>>,
    }
    impl Simulation for TalkativeBlackHole {
        type Event = ();
        type Command = Reply<()>;
        fn on_command(&mut self, _ctx: &mut Ctx<'_, ()>, cmd: Reply<()>) {
            self.parked.push(cmd);
        }
        fn on_event(&mut self, _ctx: &mut Ctx<'_, ()>, _ev: ()) {}
        fn deadlock_report(&self) -> Vec<String> {
            vec![format!(
                "{} call(s) parked in the black hole",
                self.parked.len()
            )]
        }
    }

    #[test]
    fn deadlock_panic_carries_the_simulation_report() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_with_driver(TalkativeBlackHole { parked: Vec::new() }, |conn| {
                conn.call(|r| r)
            })
        }));
        let payload = match result {
            Err(p) => p,
            Ok(_) => panic!("expected deadlock panic"),
        };
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a string");
        assert!(msg.contains("virtual-time deadlock"), "{msg}");
        assert!(msg.contains("1 call(s) parked in the black hole"), "{msg}");
    }
}
