//! Driver-side API: the handle shuffle libraries program against.
//!
//! Mirrors the Ray surface used in the paper's listings: `task(...)`
//! builders instead of `@ray.remote`, [`RtHandle::get`]/[`RtHandle::wait`]
//! for consumption and backpressure, `locations` for runtime introspection,
//! and `kill_node` for fault injection.

use exo_sim::engine::{run_with_driver, DriverConn, DriverSpawner, Engine};
use exo_sim::{SimDuration, SimTime};

use crate::command::{RtCommand, RtError};
use crate::ids::{JobId, NodeId, ObjectId};
use crate::jobs::JobParams;
use crate::metrics::{EngineTables, RtMetrics};
use crate::object::{ObjectRef, Payload};
use crate::runtime::{validate_config, Fault, RtConfig, Runtime};
use crate::task::{CpuCost, SchedulingStrategy, TaskCtx, TaskFn, TaskOptions, TaskShape, TaskSpec};

/// Handle through which a driver program talks to the runtime. Each
/// handle is scoped to one admitted job; every submit/put/get it issues
/// is billed to that job (and through it, the job's tenant).
#[derive(Clone)]
pub struct RtHandle {
    conn: DriverConn<RtCommand>,
    job: JobId,
}

/// Summary of a finished run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Virtual time when the driver program finished.
    pub end_time: SimTime,
    /// Final runtime metrics.
    pub metrics: RtMetrics,
    /// Full trace-event stream, in emission order. Empty unless
    /// [`RtConfig::trace`] enabled retention ([`exo_trace::TraceConfig`]).
    pub trace: Vec<exo_trace::Event>,
    /// Live metrics timeseries, closed out at `end_time`. `None` unless
    /// [`RtConfig::live`] was set.
    pub live: Option<exo_live::LiveSeries>,
    /// Detected incidents, every one closed by `end_time`. `None`
    /// unless [`RtConfig::watch`] was set.
    pub incidents: Option<exo_watch::WatchReport>,
    /// Live entries and capacity of the engine's largest tables at
    /// shutdown (footprint accounting; never feeds the simulation).
    pub tables: EngineTables,
}

/// Assemble the final report once the engine has shut down. Snapshot
/// order matters: the shutdown drain completed in-flight final-stage
/// output writes (so metrics cover the tail the driver never waited
/// on), and watch finalization force-closes open incidents *into* the
/// sink, so it must run before the trace stream is drained.
fn finish_report(runtime: Runtime, end: SimTime) -> RunReport {
    let metrics = runtime.metrics();
    let tables = runtime.tables();
    let incidents = runtime.take_watch(end);
    let trace = runtime.take_trace();
    let live = runtime.take_live(end);
    drop(runtime);
    RunReport {
        end_time: end,
        metrics,
        trace,
        live,
        incidents,
        tables,
    }
}

/// Build and run a driver program against a simulated cluster; returns the
/// run report and the driver's result.
///
/// The driver runs as the runtime's sole job (job 0, default tenant),
/// registered before the driver body and finished after it. Its tasks
/// go through the same job manager ready pool and fair-share dispatcher
/// as [`run_service`] jobs.
pub fn run<R: Send>(cfg: RtConfig, driver: impl FnOnce(&RtHandle) -> R + Send) -> (RunReport, R) {
    validate_config(&cfg);
    let runtime = Runtime::new(cfg);
    let (runtime, end, result) = run_with_driver(runtime, move |conn| {
        let job = conn.call(|reply| RtCommand::RegisterJob {
            params: JobParams::default(),
            reply,
        });
        let rt = RtHandle {
            conn: conn.clone(),
            job,
        };
        let r = driver(&rt);
        conn.call(|reply| RtCommand::FinishJob { job, reply });
        r
    });
    (finish_report(runtime, end), result)
}

/// Run the runtime as a *service*: instead of one driver closure, a
/// coordinator program submits a stream of jobs, each of which runs its
/// own driver closure on its own thread against the same cluster.
///
/// The coordinator's `submit_job` calls register jobs in program order
/// (job ids are deterministic across reruns); admission control may park
/// a registration — and with it the coordinator — until store pressure
/// clears or a live job finishes.
pub fn run_service<R: Send>(
    cfg: RtConfig,
    coordinator: impl FnOnce(&ServiceHandle) -> R + Send,
) -> (RunReport, R) {
    validate_config(&cfg);
    let runtime = Runtime::new(cfg);
    let (engine, spawner) = Engine::new(runtime);
    let conn = spawner.connect();
    std::thread::scope(|scope| {
        let handle = scope.spawn(move || {
            let svc = ServiceHandle {
                conn,
                spawner,
                outstanding: std::sync::Mutex::new(Vec::new()),
            };
            let r = coordinator(&svc);
            svc.join_all();
            r
        });
        let run = engine.run();
        let joined = handle.join();
        match run {
            Ok((runtime, end)) => {
                // audit:allow(P01): re-raises the coordinator thread's
                // own panic on the caller; suppressing it would report a
                // bogus success.
                let result = joined.expect("coordinator thread panicked");
                (finish_report(runtime, end), result)
            }
            // audit:allow(P01): a deadlock is terminal — the virtual
            // clock cannot advance and there is no resume path; the
            // panic carries the full stall diagnostic.
            Err(dl) => panic!("{dl}"),
        }
    })
}

/// Coordinator-side handle for [`run_service`]: submits jobs, reads the
/// clock, and queries runtime state between submissions.
pub struct ServiceHandle {
    conn: DriverConn<RtCommand>,
    spawner: DriverSpawner<RtCommand>,
    /// Jobs and their threads not yet joined; drained by
    /// [`ServiceHandle::join_all`] and on coordinator exit so the engine
    /// always sees every job thread detach.
    outstanding: std::sync::Mutex<Vec<(JobId, std::thread::JoinHandle<()>)>>,
}

/// A job submitted through [`ServiceHandle::submit_job`]; join it for
/// the driver's result and timing.
pub struct JobHandle<R> {
    job: JobId,
    /// Coordinator's connection: joining parks in an `AwaitJob` call so
    /// the virtual clock keeps advancing while the job runs.
    conn: DriverConn<RtCommand>,
    rx: std::sync::mpsc::Receiver<JobResult<R>>,
}

/// Outcome of one job: identity, timing (virtual microseconds) and the
/// driver closure's return value. JCT is measured driver-side —
/// `finished_us − admitted_us` — so it is independent of trace retention.
#[derive(Debug)]
pub struct JobResult<R> {
    pub job: JobId,
    /// When the coordinator asked to register the job.
    pub submitted_us: u64,
    /// When admission control admitted it (equals `submitted_us` unless
    /// the registration was queued under store pressure).
    pub admitted_us: u64,
    /// When the job's driver closure returned.
    pub finished_us: u64,
    pub result: R,
}

impl<R> JobResult<R> {
    /// Job completion time (admission → driver return), µs.
    pub fn jct_us(&self) -> u64 {
        self.finished_us.saturating_sub(self.admitted_us)
    }
}

impl<R> JobHandle<R> {
    /// The admitted job's id.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// Block until the job's driver returns. Parks in the engine (via
    /// `AwaitJob`) rather than on the thread directly, so virtual time
    /// advances while waiting.
    pub fn join(self) -> JobResult<R> {
        let job = self.job;
        self.conn.call(|reply| RtCommand::AwaitJob { job, reply });
        // audit:allow(P01): the sender side only drops without sending
        // if the job thread panicked, which is a driver bug this
        // propagates instead of masking.
        self.rx.recv().expect("job driver panicked")
    }
}

impl ServiceHandle {
    /// Register a job (blocking until admission control admits it) and
    /// run `driver` against it on a dedicated thread.
    pub fn submit_job<R: Send + 'static>(
        &self,
        params: JobParams,
        driver: impl FnOnce(&RtHandle) -> R + Send + 'static,
    ) -> JobHandle<R> {
        // Register from the coordinator thread: job ids are assigned in
        // registration order, so submissions get deterministic ids in
        // coordinator program order. If admission queues the job, this
        // call parks until pressure clears — the arrival process itself
        // experiences the backpressure.
        let submitted_us = self.now().as_micros();
        let job = self
            .conn
            .call(|reply| RtCommand::RegisterJob { params, reply });
        let admitted_us = self.now().as_micros();
        let conn = self.spawner.connect();
        let (tx, rx) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            let rt = RtHandle {
                conn: conn.clone(),
                job,
            };
            let result = driver(&rt);
            let finished_us = rt.now().as_micros();
            conn.call(|reply| RtCommand::FinishJob { job, reply });
            drop(rt);
            drop(conn); // detach before reporting, so join_all can't race the engine
            let _ = tx.send(JobResult {
                job,
                submitted_us,
                admitted_us,
                finished_us,
                result,
            });
        });
        // audit:allow(P01): the lock is only poisoned if another
        // coordinator-side call panicked; propagating that panic is the
        // correct behaviour, not a recoverable error.
        self.outstanding
            .lock()
            .expect("service handle poisoned")
            .push((job, thread));
        JobHandle {
            job,
            conn: self.conn.clone(),
            rx,
        }
    }

    /// Join every job thread spawned so far (called automatically when
    /// the coordinator returns). Awaits each job through the engine
    /// first so the virtual clock keeps advancing, then reaps threads.
    pub fn join_all(&self) {
        // audit:allow(P01): see `submit_job` — poisoning means a prior
        // coordinator panic, which this re-raises rather than masks.
        let jobs: Vec<_> =
            std::mem::take(&mut *self.outstanding.lock().expect("service handle poisoned"));
        for (job, _) in &jobs {
            let job = *job;
            self.conn.call(|reply| RtCommand::AwaitJob { job, reply });
        }
        for (_, t) in jobs {
            // audit:allow(P01): a panicked job driver is a driver bug;
            // propagate it rather than report a bogus success.
            t.join().expect("job driver thread panicked");
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.conn.call(|reply| RtCommand::Now { reply })
    }

    /// Sleep for a virtual duration (paces the arrival process).
    pub fn sleep(&self, dur: SimDuration) {
        self.conn.call(|reply| RtCommand::Sleep { dur, reply })
    }

    /// Snapshot runtime metrics.
    pub fn metrics(&self) -> RtMetrics {
        self.conn.call(|reply| RtCommand::Metrics { reply })
    }

    /// Incidents decided so far (see [`RtHandle::incidents_now`]).
    pub fn incidents_now(&self) -> Vec<exo_watch::Incident> {
        self.conn.call(|reply| RtCommand::IncidentsNow { reply })
    }

    /// Number of nodes in the cluster.
    pub fn num_nodes(&self) -> usize {
        self.conn.call(|reply| RtCommand::NumNodes { reply })
    }
}

impl RtHandle {
    /// Start building a task around `func`. The function must be
    /// deterministic in its `TaskCtx` (lineage reconstruction re-runs it).
    pub fn task<F>(&self, func: F) -> TaskBuilder
    where
        F: Fn(TaskCtx) -> Vec<Payload> + Send + Sync + 'static,
    {
        TaskBuilder {
            rt: self.clone(),
            func: std::sync::Arc::new(func),
            args: Vec::new(),
            opts: TaskOptions::default(),
        }
    }

    /// The job this handle is scoped to.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// Put a value into the cluster from the driver.
    pub fn put(&self, value: Payload) -> ObjectRef {
        let job = self.job;
        let id = self.conn.call(|reply| RtCommand::Put { job, value, reply });
        ObjectRef::new(id, self.conn.clone())
    }

    /// Block until all objects are available and fetch their payloads.
    pub fn get(&self, refs: &[ObjectRef]) -> Result<Vec<Payload>, RtError> {
        let job = self.job;
        let objs: Vec<ObjectId> = refs.iter().map(|r| r.id()).collect();
        self.conn.call(|reply| RtCommand::Get { job, objs, reply })
    }

    /// Convenience: get a single object.
    pub fn get_one(&self, r: &ObjectRef) -> Result<Payload, RtError> {
        // audit:allow(P01): `get` returns exactly one payload per
        // requested ref on success, so pop on a one-ref call never fails.
        Ok(self
            .get(std::slice::from_ref(r))?
            .pop()
            .expect("one payload"))
    }

    /// Block until `num_ready` of `refs` are available (or the timeout
    /// fires); returns indices of (ready, not-ready) refs.
    pub fn wait(
        &self,
        refs: &[ObjectRef],
        num_ready: usize,
        timeout: Option<SimDuration>,
    ) -> (Vec<usize>, Vec<usize>) {
        let job = self.job;
        let objs: Vec<ObjectId> = refs.iter().map(|r| r.id()).collect();
        self.conn.call(|reply| RtCommand::Wait {
            job,
            objs,
            num_ready,
            timeout,
            reply,
        })
    }

    /// Wait for every ref to be available without fetching payloads.
    pub fn wait_all(&self, refs: &[ObjectRef]) {
        if !refs.is_empty() {
            let _ = self.wait(refs, refs.len(), None);
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.conn.call(|reply| RtCommand::Now { reply })
    }

    /// Sleep for a virtual duration.
    pub fn sleep(&self, dur: SimDuration) {
        self.conn.call(|reply| RtCommand::Sleep { dur, reply })
    }

    /// Nodes currently holding a copy of the object (§4.3.2 runtime
    /// introspection).
    pub fn locations(&self, r: &ObjectRef) -> Vec<NodeId> {
        let obj = r.id();
        self.conn.call(|reply| RtCommand::Locations { obj, reply })
    }

    /// Schedule a node kill at `at`, restarting after `restart_after` if
    /// given (fault injection, §5.1.5). A kill that lands while the node
    /// is already down does nothing and its `restart_after` is ignored:
    /// only the kill that took the node down schedules its restart.
    pub fn kill_node(&self, node: NodeId, at: SimTime, restart_after: Option<SimDuration>) {
        let fault = Fault::KillNode(node, restart_after);
        self.conn
            .call(|reply| RtCommand::Inject { at, fault, reply })
    }

    /// Kill all executor processes on `node` at `at`; the node's object
    /// store survives (executor-failure injection, §4.2.3).
    pub fn kill_executors(&self, node: NodeId, at: SimTime) {
        let fault = Fault::KillExecutors(node);
        self.conn
            .call(|reply| RtCommand::Inject { at, fault, reply })
    }

    /// Snapshot runtime metrics.
    pub fn metrics(&self) -> RtMetrics {
        self.conn.call(|reply| RtCommand::Metrics { reply })
    }

    /// Incidents the online detectors ([`RtConfig::watch`]) have decided
    /// so far — open and closed, in detection order. Empty when no
    /// watcher is configured. Detection advances on virtual-time
    /// evaluation boundaries, so a query can lag the current instant by
    /// up to one evaluation interval. This is the mid-run trigger
    /// surface adaptive placement/variant-switching logic consumes.
    pub fn incidents_now(&self) -> Vec<exo_watch::Incident> {
        self.conn.call(|reply| RtCommand::IncidentsNow { reply })
    }

    /// Number of nodes in the cluster.
    pub fn num_nodes(&self) -> usize {
        self.conn.call(|reply| RtCommand::NumNodes { reply })
    }

    pub(crate) fn submit_spec(&self, spec: TaskSpec) -> Vec<ObjectRef> {
        let job = self.job;
        let ids = self
            .conn
            .call(|reply| RtCommand::Submit { job, spec, reply });
        ids.into_iter()
            .map(|id| ObjectRef::new(id, self.conn.clone()))
            .collect()
    }
}

/// Fluent builder for a task submission (the `.options(...).remote(...)`
/// pattern from the paper's listings).
pub struct TaskBuilder {
    rt: RtHandle,
    func: TaskFn,
    args: Vec<ObjectId>,
    opts: TaskOptions,
}

impl TaskBuilder {
    /// Pass a distributed future as an argument.
    pub fn arg(mut self, r: &ObjectRef) -> Self {
        self.args.push(r.id());
        self
    }

    /// Pass many futures.
    pub fn args<'a>(mut self, rs: impl IntoIterator<Item = &'a ObjectRef>) -> Self {
        self.args.extend(rs.into_iter().map(ObjectRef::id));
        self
    }

    /// Declare the number of return objects (multiple-returns API).
    pub fn num_returns(mut self, n: usize) -> Self {
        self.opts.num_returns = n;
        self
    }

    /// Set the placement strategy.
    pub fn strategy(mut self, s: SchedulingStrategy) -> Self {
        self.opts.strategy = s;
        self
    }

    /// Pin to a node (soft affinity).
    pub fn on_node(mut self, node: NodeId) -> Self {
        self.opts.strategy = SchedulingStrategy::NodeAffinity(node);
        self
    }

    /// Set the CPU cost model.
    pub fn cpu(mut self, c: CpuCost) -> Self {
        self.opts.cpu = c;
        self
    }

    /// Declare the task's resource shape for bound-aware placement.
    pub fn shape(mut self, s: TaskShape) -> Self {
        self.opts.shape = s;
        self
    }

    /// Charge a sequential read of job input at the executing node.
    pub fn reads_input(mut self, bytes: u64) -> Self {
        self.opts.reads_input = bytes;
        self
    }

    /// Charge a sequential write of job output at the executing node.
    pub fn writes_output(mut self, bytes: u64) -> Self {
        self.opts.writes_output = bytes;
        self
    }

    /// Yield outputs one at a time (remote generator).
    pub fn generator(mut self) -> Self {
        self.opts.generator = true;
        self
    }

    /// Label recorded on the task's trace spans.
    pub fn label(mut self, label: &'static str) -> Self {
        self.opts.label = label;
        self
    }

    /// Submit; returns one `ObjectRef` per declared return. Non-blocking.
    pub fn submit(self) -> Vec<ObjectRef> {
        // The spec lives as long as the task's lineage (the whole run):
        // drop the push-growth slack.
        let mut args = self.args;
        args.shrink_to_fit();
        let spec = TaskSpec {
            func: self.func,
            args,
            opts: self.opts,
        };
        self.rt.submit_spec(spec)
    }

    /// Submit a single-return task and get its one ref.
    pub fn submit_one(self) -> ObjectRef {
        assert_eq!(
            self.opts.num_returns, 1,
            "submit_one requires num_returns == 1"
        );
        // audit:allow(P01): asserted num_returns == 1 immediately above.
        self.submit().pop().expect("one return")
    }
}
