//! The four workloads, and the single iteration a child process runs:
//! build the inputs from the seed, run the simulation through the
//! runtime's public entry points, validate the outputs, and read every
//! metric off spans, `RunReport` and procfs.

use std::collections::BTreeMap;
use std::hint::black_box;

use exo_agg::{regular_aggregation, AggConfig, PageviewSpec};
use exo_ml::{exoshuffle_training, DatasetSpec, TrainConfig};
use exo_rt::trace::{
    chrome_trace_json, jsonl_string, summarize, Event, EventKind, IncidentKind, Json,
};
use exo_rt::{
    JobParams, LiveConfig, NodeId, Payload, RtConfig, RtHandle, RtMetrics, RunReport, TenantId,
    TenantQuota, TraceConfig, WatchConfig,
};
use exo_shuffle::{run_shuffle, ShuffleJob, ShuffleVariant, ShuffleWindow};
use exo_sim::{ClusterSpec, DeviceCaps, NodeSpec, SimDuration, SimTime, SplitMix64};
use exo_sort::{sort_job, validate_sorted, SortSpec, RECORD_SIZE};

use crate::arrivals::{self, Arrival, Kind};
use crate::spans::{self, Span};
use crate::stats::{median, nearest_rank};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    XlSimple,
    SpillPushStar,
    Multitenant,
    FtSimple,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::XlSimple,
        Workload::SpillPushStar,
        Workload::Multitenant,
        Workload::FtSimple,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::XlSimple => "xl_simple",
            Workload::SpillPushStar => "spill_pushstar",
            Workload::Multitenant => "multitenant",
            Workload::FtSimple => "ft_simple",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether rerunning one input reproduces the simulation exactly.
    /// Multitenant's does not: its job threads can run at the same
    /// virtual instant, and the engine applies their commands in the
    /// order they arrive.
    pub fn repeats_exactly(self) -> bool {
        match self {
            Workload::Multitenant => false,
            Workload::XlSimple | Workload::SpillPushStar | Workload::FtSimple => true,
        }
    }

    /// Jobs one iteration submits (a crashed child fails all of them).
    pub fn jobs(self) -> u64 {
        match self {
            Workload::Multitenant => arrivals::JOBS as u64,
            Workload::XlSimple | Workload::SpillPushStar | Workload::FtSimple => 1,
        }
    }
}

/// What a child process turns on besides the always-on counter fold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Nothing: the end-to-end measurement.
    Untraced,
    /// Full trace retention, then profile, exporters and kernels.
    Traced,
    /// Live snapshots and incident detection, no retention.
    Observed,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Untraced => "untraced",
            Mode::Traced => "traced",
            Mode::Observed => "observed",
        }
    }

    pub fn from_name(name: &str) -> Option<Mode> {
        [Mode::Untraced, Mode::Traced, Mode::Observed]
            .into_iter()
            .find(|m| m.name() == name)
    }
}

/// One iteration's results, as a child prints them.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
}

impl Sample {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn fail(&mut self, err: String) {
        self.failed += 1;
        self.errors.push(err);
    }

    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .fold(Json::obj(), |j, (k, v)| j.set(k, *v));
        Json::obj()
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set(
                "errors",
                Json::Arr(self.errors.iter().map(|e| Json::from(e.as_str())).collect()),
            )
            .set("metrics", metrics)
            .set(
                "spans",
                Json::Arr(self.spans.iter().map(Span::to_json).collect()),
            )
    }

    pub fn from_json(j: &Json) -> Option<Sample> {
        let arr = |k: &str| match j.get(k) {
            Some(Json::Arr(items)) => Some(items.clone()),
            _ => None,
        };
        Some(Sample {
            metrics: j
                .get("metrics")?
                .entries()
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect::<Option<_>>()?,
            attempted: j.get("attempted")?.as_f64()? as u64,
            failed: j.get("failed")?.as_f64()? as u64,
            errors: arr("errors")?
                .iter()
                .map(|e| e.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            spans: arr("spans")?
                .iter()
                .map(Span::from_json)
                .collect::<Option<_>>()?,
        })
    }
}

/// A single-job sort workload.
struct SortCase {
    node: NodeSpec,
    nodes: usize,
    partitions: usize,
    /// Logical dataset bytes the performance model charges.
    data_bytes: u64,
    /// Real record bytes carried through the system.
    real_bytes: u64,
    variant: ShuffleVariant,
    /// Cluster-wide object store as a fraction `1/n` of the dataset.
    store_share: Option<u64>,
    /// `kill_node(node)` at virtual second `at_s`, restarted `restart_s` later.
    kill: Option<(usize, u64, u64)>,
}

fn sort_case(w: Workload) -> Option<SortCase> {
    let d3 = NodeSpec::d3_2xlarge();
    match w {
        // The CloudSort record geometry (100 TB over 3,200 partitions),
        // cut to 600 partitions at the same bytes per partition.
        Workload::XlSimple => Some(SortCase {
            node: d3,
            nodes: 100,
            partitions: 600,
            data_bytes: 100_000_000_000_000 / 3200 * 600,
            real_bytes: 50_000_000,
            variant: ShuffleVariant::Simple,
            store_share: None,
            kill: None,
        }),
        // Fig 4a's 5:1 data-to-store ratio: the object stores spill.
        Workload::SpillPushStar => Some(SortCase {
            node: d3,
            nodes: 20,
            partitions: 1600,
            data_bytes: 8_000_000_000_000,
            real_bytes: 400_000_000,
            variant: ShuffleVariant::PushStar { map_parallelism: 2 },
            store_share: Some(5),
            kill: None,
        }),
        Workload::FtSimple => Some(SortCase {
            node: d3,
            nodes: 20,
            partitions: 400,
            data_bytes: 2_000_000_000_000,
            real_bytes: 50_000_000,
            variant: ShuffleVariant::Simple,
            store_share: None,
            kill: Some((3, 200, 30)),
        }),
        Workload::Multitenant => None,
    }
}

impl SortCase {
    fn spec(&self, seed: u64) -> SortSpec {
        SortSpec {
            data_bytes: self.data_bytes,
            num_maps: self.partitions,
            num_reduces: self.partitions,
            scale: self.data_bytes / self.real_bytes,
            seed,
        }
    }

    fn store_bytes(&self) -> Option<u64> {
        self.store_share
            .map(|n| self.data_bytes / n / self.nodes as u64)
    }
}

/// Runs one iteration of `w` and returns its sample.
pub fn run_iteration(w: Workload, seed: u64, mode: Mode) -> Sample {
    let mut s = match sort_case(w) {
        Some(case) => sort_iteration(&case, seed, mode),
        None => multitenant_iteration(seed, mode),
    };
    s.set("peak_rss_mb", peak_rss_mb());
    let sp = spans::take();
    let total = |name| spans::total_s(&sp, name);
    let wall = total("iteration");
    s.set("wall_s", wall);
    let mut setups = vec![total("setup")];
    if mode == Mode::Untraced {
        setups.extend((0..SETUP_PROBES).map(|_| probe_setup(w, seed)));
    }
    s.set("setup_s", median(&setups));
    s.set("rt.teardown_s", total("teardown"));
    s.set("rt.wait_s", total("rt.wait_all") + total("job.join"));
    s.set("rt.get_s", total("rt.get"));
    s.set("shuffle.driver_s", total("shuffle.run_shuffle"));
    s.set("sort.validate_s", total("sort.validate"));
    let dispatches = s.metrics["sim.dispatches"].max(1.0);
    s.set("sim.host_us_per_dispatch", wall * 1e6 / dispatches);
    s.set("host.cpu_per_wall", s.metrics["host.cpu_s"] / wall);
    s.spans = sp;
    s
}

/// Extra set-ups per untraced iteration; `setup_s` is the median of
/// these and the iteration's own.
const SETUP_PROBES: usize = 10;

/// Host seconds from the start of set-up to the first line of a driver
/// that returns at once.
fn probe_setup(w: Workload, seed: u64) -> f64 {
    let t0 = spans::now_us();
    let t1 = match sort_case(w) {
        Some(case) => {
            let cfg = sort_setup(&case, seed, Mode::Untraced).2;
            exo_rt::run(cfg, |_| spans::now_us()).1
        }
        None => exo_rt::run_service(mt_setup(seed, Mode::Untraced).1, |_| spans::now_us()).1,
    };
    (t1 - t0) / 1e6
}

fn observe(cfg: &mut RtConfig, mode: Mode) {
    match mode {
        Mode::Untraced => {}
        Mode::Traced => cfg.trace = TraceConfig::on(),
        Mode::Observed => {
            cfg.live = Some(LiveConfig::default());
            cfg.watch.get_or_insert_with(WatchConfig::default);
        }
    }
}

/// Inputs, configuration and device capacities of one sort iteration:
/// everything built before the driver starts.
fn sort_setup(
    case: &SortCase,
    seed: u64,
    mode: Mode,
) -> (SortSpec, ShuffleJob, RtConfig, DeviceCaps) {
    let spec = case.spec(seed);
    let job = sort_job(spec);
    let mut cfg = RtConfig::new(ClusterSpec::homogeneous(case.node, case.nodes));
    cfg.object_store_capacity = case.store_bytes();
    observe(&mut cfg, mode);
    let mut caps = cfg.cluster.device_caps();
    if let Some(c) = cfg.object_store_capacity {
        for node in &mut caps.per_node {
            node.store_bytes = c;
        }
    }
    (spec, job, cfg, caps)
}

fn sort_iteration(case: &SortCase, seed: u64, mode: Mode) -> Sample {
    let cpu0 = cpu_seconds();
    let t_start = spans::now_us();
    let it = spans::open_at("iteration", None, t_start);
    let it_id = it.id();
    let setup = spans::open_at("setup", Some(it_id), t_start);
    let (spec, job, cfg, caps) = sort_setup(case, seed, mode);
    let d0 = exo_sim::dispatch_total();
    let (report, (jct, got, teardown)) = exo_rt::run(cfg, |rt| {
        let t = spans::now_us();
        spans::close_at(setup, t);
        let drv = spans::open_at("driver", Some(it_id), t);
        let p = Some(drv.id());
        if let Some((node, at_s, restart_s)) = case.kill {
            let at = SimTime(at_s * 1_000_000);
            rt.kill_node(NodeId(node), at, Some(SimDuration::from_secs(restart_s)));
        }
        let t0 = rt.now();
        let outs = spans::timed("shuffle.run_shuffle", p, None, || {
            run_shuffle(rt, &job, case.variant)
        });
        spans::timed("rt.wait_all", p, None, || rt.wait_all(&outs));
        let jct = rt.now().since(t0);
        let got = spans::timed("rt.get", p, None, || rt.get(&outs));
        let t = spans::now_us();
        spans::close_at(drv, t);
        (jct, got, spans::open_at("teardown", Some(it_id), t))
    });
    let t_end = spans::now_us();
    let cpu_s = cpu_seconds() - cpu0;
    spans::close_at(teardown, t_end);
    spans::close_at(it, t_end);

    let mut s = Sample {
        attempted: 1,
        ..Sample::default()
    };
    let checked = spans::timed("sort.validate", None, None, || {
        got.map_err(|e| e.to_string())
            .and_then(|outs| validate_sorted(&spec, &outs))
    });
    if let Err(e) = checked {
        s.fail(format!("sort output invalid: {e}"));
    }
    s.set("sim_jct_s", jct.as_secs_f64());
    s.set("sim_jct_p75_s", jct.as_secs_f64());
    s.set("rt.admission_wait_p50_s", 0.0);
    s.set("rt.priority_jct_p50_s", 0.0);
    s.set("sort.real_mb", real_mb(&spec));
    report_metrics(&mut s, d0, &report);
    s.set("host.cpu_s", cpu_s);
    if mode == Mode::Traced {
        traced_metrics(&mut s, report, &caps);
        kernel_metrics(&mut s, &job);
    }
    s
}

fn real_mb(spec: &SortSpec) -> f64 {
    (spec.total_real_records() * RECORD_SIZE) as f64 / 1e6
}

/// The three tenants: weights 2/1/1, cpu-slot caps 50/37.5/37.5% of the
/// cluster, store quotas 16/8/8 GB.
fn tenants(nodes: usize) -> Vec<(TenantId, TenantQuota)> {
    let slots = (nodes * 8) as f64;
    [(2, 0.5, 16), (1, 0.375, 8), (1, 0.375, 8)]
        .into_iter()
        .enumerate()
        .map(|(t, (weight, frac, gb))| {
            let quota = TenantQuota {
                weight,
                cpu_slots: Some((slots * frac) as usize),
                store_bytes: Some(gb * 1_000_000_000),
            };
            (TenantId(t as u32), quota)
        })
        .collect()
}

const MT_NODES: usize = 4;

/// One map per ~250 MB, clamped so small jobs still shuffle and large
/// ones fit the 4-node cluster.
fn partitions_for(bytes: u64) -> usize {
    ((bytes / 250_000_000) as usize).clamp(4, 16)
}

/// Every sort job carries ~1 MB of real records, so host time and memory
/// go to the service path rather than to sort kernels and buffers that
/// `spill_pushstar` covers.
fn mt_sort_spec(a: &Arrival) -> SortSpec {
    let parts = partitions_for(a.data_bytes);
    SortSpec {
        data_bytes: a.data_bytes,
        num_maps: parts,
        num_reduces: parts,
        scale: (a.data_bytes / 1_000_000).max(1),
        seed: a.seed,
    }
}

const ML_EPOCHS: usize = 2;

/// What a job's driver hands back: when its result was complete
/// (virtual µs, taken before any output validation) and its check.
struct JobOut {
    done_us: u64,
    check: Result<(), String>,
}

fn run_job(rt: &RtHandle, a: Arrival, parent: u64) -> JobOut {
    let job = Some(a.index);
    let drv = spans::open("job.driver", Some(parent), job);
    let p = Some(drv.id());
    let out = match a.kind {
        Kind::Sort => {
            let spec = mt_sort_spec(&a);
            let sj = sort_job(spec);
            let variant = ShuffleVariant::PushStar { map_parallelism: 2 };
            let outs = spans::timed("shuffle.run_shuffle", p, job, || {
                run_shuffle(rt, &sj, variant)
            });
            spans::timed("rt.wait_all", p, job, || rt.wait_all(&outs));
            let done_us = rt.now().as_micros();
            let got = spans::timed("rt.get", p, job, || rt.get(&outs));
            let check = spans::timed("sort.validate", p, job, || {
                got.map_err(|e| e.to_string())
                    .and_then(|o| validate_sorted(&spec, &o))
                    .map(|_| ())
            });
            JobOut { done_us, check }
        }
        Kind::Agg => {
            let parts = partitions_for(a.data_bytes);
            let cfg = AggConfig {
                spec: PageviewSpec {
                    data_bytes: a.data_bytes,
                    num_maps: parts,
                    num_reduces: (parts / 2).max(2),
                    entries_per_map: 1_000,
                    pages: 20_000,
                    seed: a.seed,
                },
                rounds: 1,
            };
            let (_, dist) = spans::timed("agg.regular_aggregation", p, job, || {
                regular_aggregation(rt, &cfg)
            });
            let sum: f64 = dist.iter().sum();
            let check = if (sum - 1.0).abs() <= 1e-9 {
                Ok(())
            } else {
                Err(format!("agg distribution sums to {sum}"))
            };
            JobOut {
                done_us: rt.now().as_micros(),
                check,
            }
        }
        Kind::Ml => {
            let samples = 10_000usize;
            let sample_bytes = (a.data_bytes / samples as u64).clamp(500, 4_000);
            let cfg = TrainConfig {
                dataset: DatasetSpec::new(samples, 8, a.seed)
                    .with_logical_sample_bytes(sample_bytes),
                epochs: ML_EPOCHS,
                batch_size: 128,
                lr: 0.5,
                variant: ShuffleVariant::Simple,
                window: ShuffleWindow::Full,
                gpu_ns_per_sample: 40_000.0,
            };
            let r = spans::timed("ml.exoshuffle_training", p, job, || {
                exoshuffle_training(rt, &cfg)
            });
            let check = if r.epoch_times.len() == ML_EPOCHS {
                Ok(())
            } else {
                Err(format!(
                    "ml finished {} of {ML_EPOCHS} epochs",
                    r.epoch_times.len()
                ))
            };
            JobOut {
                done_us: rt.now().as_micros(),
                check,
            }
        }
    };
    spans::close(drv);
    out
}

/// Arrival plan, configuration and device capacities of one multitenant
/// iteration: everything built before the coordinator starts.
fn mt_setup(seed: u64, mode: Mode) -> (Vec<Arrival>, RtConfig, DeviceCaps) {
    let plan = arrivals::plan(seed);
    let tenants = tenants(MT_NODES);
    let mut cfg = RtConfig::new(ClusterSpec::homogeneous(NodeSpec::r6i_2xlarge(), MT_NODES));
    for (t, q) in &tenants {
        cfg = cfg.with_tenant(*t, *q);
    }
    // exo-watch is always on here: its isolation detector, pinned to the
    // cpu caps the scheduler enforces, audits the quotas.
    cfg.watch = Some(WatchConfig {
        tenant_slot_quotas: tenants
            .iter()
            .filter_map(|(t, q)| q.cpu_slots.map(|s| (t.0, s as u32)))
            .collect(),
        ..WatchConfig::default()
    });
    observe(&mut cfg, mode);
    let caps = cfg.cluster.device_caps();
    (plan, cfg, caps)
}

fn multitenant_iteration(seed: u64, mode: Mode) -> Sample {
    let cpu0 = cpu_seconds();
    let t_start = spans::now_us();
    let it = spans::open_at("iteration", None, t_start);
    let it_id = it.id();
    let setup = spans::open_at("setup", Some(it_id), t_start);
    let (plan, cfg, caps) = mt_setup(seed, mode);
    let d0 = exo_sim::dispatch_total();
    let coordinator_plan = plan.clone();
    let (report, (results, teardown)) = exo_rt::run_service(cfg, move |svc| {
        let t = spans::now_us();
        spans::close_at(setup, t);
        let drv = spans::open_at("driver", Some(it_id), t);
        let drv_id = drv.id();
        let mut handles = Vec::with_capacity(coordinator_plan.len());
        for a in coordinator_plan {
            // Open loop: sleep to the due time; a submission held up by
            // admission control makes later ones late, and their JCT,
            // measured from the due time, carries that lateness.
            let now = svc.now().as_micros();
            if a.due_us > now {
                svc.sleep(SimDuration::from_micros(a.due_us - now));
            }
            let params = JobParams {
                tenant: TenantId(a.tenant),
                priority: a.priority,
                label: a.kind.name(),
            };
            let h = spans::timed("svc.submit_job", Some(drv_id), Some(a.index), || {
                svc.submit_job(params, move |rt| run_job(rt, a, drv_id))
            });
            handles.push((a.index, h));
        }
        let results: Vec<_> = handles
            .into_iter()
            .map(|(k, h)| spans::timed("job.join", Some(drv_id), Some(k), || h.join()))
            .collect();
        let t = spans::now_us();
        spans::close_at(drv, t);
        (results, spans::open_at("teardown", Some(it_id), t))
    });
    let t_end = spans::now_us();
    let cpu_s = cpu_seconds() - cpu0;
    spans::close_at(teardown, t_end);
    spans::close_at(it, t_end);

    let mut s = Sample {
        attempted: plan.len() as u64,
        ..Sample::default()
    };
    let mut jct = Vec::with_capacity(plan.len());
    let mut priority_jct = Vec::new();
    let mut admission_wait = Vec::with_capacity(plan.len());
    for (a, r) in plan.iter().zip(&results) {
        if let Err(e) = &r.result.check {
            s.fail(format!("job {} ({}): {e}", a.index, a.kind.name()));
        }
        let j = r.result.done_us.saturating_sub(a.due_us) as f64 / 1e6;
        jct.push(j);
        if a.priority {
            priority_jct.push(j);
        }
        admission_wait.push(r.admitted_us.saturating_sub(r.submitted_us) as f64 / 1e6);
    }
    let violations = report.incidents.as_ref().map_or(0, |w| {
        w.incidents
            .iter()
            .filter(|i| i.kind == IncidentKind::IsolationViolation)
            .count()
    });
    if violations > 0 {
        s.fail(format!("{violations} tenant isolation violations"));
        s.failed = s.failed.min(s.attempted);
    }
    s.set("sim_jct_s", median(&jct));
    s.set("sim_jct_p75_s", nearest_rank(&jct, 0.75));
    s.set("rt.admission_wait_p50_s", median(&admission_wait));
    s.set("rt.priority_jct_p50_s", median(&priority_jct));
    let sorts: Vec<SortSpec> = plan
        .iter()
        .filter(|a| a.kind == Kind::Sort)
        .map(mt_sort_spec)
        .collect();
    s.set("sort.real_mb", sorts.iter().map(real_mb).sum());
    report_metrics(&mut s, d0, &report);
    s.set("host.cpu_s", cpu_s);
    if mode == Mode::Traced {
        traced_metrics(&mut s, report, &caps);
        kernel_metrics(&mut s, &sort_job(sorts[0]));
    }
    s
}

/// Engine work, incidents, and the runtime's and stores' counters.
fn report_metrics(s: &mut Sample, d0: u64, report: &RunReport) {
    s.set("sim.dispatches", (exo_sim::dispatch_total() - d0) as f64);
    let incidents = report.incidents.as_ref().map_or(0, |w| w.len());
    s.set("watch.incidents", incidents as f64);
    let m: &RtMetrics = &report.metrics;
    let st = &m.store;
    let counts = [
        ("rt.tasks_completed", m.tasks_completed),
        ("rt.tasks_reexecuted", m.tasks_reexecuted),
        ("rt.objects_reconstructed", m.objects_reconstructed),
        ("rt.net_ops", m.net_ops),
        ("rt.net_bytes", m.net_bytes),
        ("rt.disk_read_bytes", m.disk_read_bytes),
        ("rt.disk_write_bytes", m.disk_write_bytes),
        ("store.spilled_bytes", st.spilled_bytes),
        ("store.spill_files", st.spill_files),
        ("store.spilled_objects", st.spilled_objects),
        ("store.restored_bytes", st.restored_bytes),
        ("store.restore_ops", st.restore_ops),
        ("store.fallback_allocs", st.fallback_allocs),
        ("store.spill_writes_elided", st.spill_writes_elided),
        ("store.evicted_unwritten", st.evicted_unwritten),
        ("store.peak_used_bytes", st.peak_used),
        ("store.quota_denials", st.quota_denials),
    ];
    for (name, v) in counts {
        s.set(name, v as f64);
    }
    let amplification = if st.spilled_bytes == 0 {
        0.0
    } else {
        st.restored_bytes as f64 / st.spilled_bytes as f64
    };
    s.set("store.restore_amplification", amplification);
}

/// Names of the trace event kinds, in [`kind_index`] order.
const KINDS: [&str; 9] = [
    "Task",
    "Object",
    "Dep",
    "FetchWait",
    "Io",
    "Resource",
    "Failure",
    "Incident",
    "Job",
];

/// Position of an event's kind in [`KINDS`].
fn kind_index(k: &EventKind) -> usize {
    match k {
        EventKind::Task(_) => 0,
        EventKind::Object(_) => 1,
        EventKind::Dep(_) => 2,
        EventKind::FetchWait(_) => 3,
        EventKind::Io(_) => 4,
        EventKind::Resource(_) => 5,
        EventKind::Failure(_) => 6,
        EventKind::Incident(_) => 7,
        EventKind::Job(_) => 8,
    }
}

fn count_kinds(events: &[Event]) -> [u64; 9] {
    let mut n = [0u64; 9];
    for e in events {
        n[kind_index(&e.kind)] += 1;
    }
    n
}

/// The retained stream's size and kinds, and the cost of each consumer
/// a user reaches with `--trace`/`--profile`.
fn traced_metrics(s: &mut Sample, report: RunReport, caps: &DeviceCaps) {
    let events = report.trace;
    s.set("trace.events", events.len() as f64);
    for (name, n) in KINDS.iter().zip(count_kinds(&events)) {
        s.set(&format!("trace.kind.{name}"), n as f64);
    }
    let o = spans::open("prof.profile", None, None);
    black_box(exo_prof::profile(&events, caps));
    s.set("prof.profile_s", spans::close(o));
    let o = spans::open("trace.chrome", None, None);
    let mb = chrome_trace_json(&events).len() as f64 / 1e6;
    s.set("trace.chrome_s", spans::close(o));
    s.set("trace.chrome_mb", mb);
    let o = spans::open("trace.jsonl", None, None);
    let mb = jsonl_string(&events).len() as f64 / 1e6;
    s.set("trace.jsonl_s", spans::close(o));
    s.set("trace.jsonl_mb", mb);
    let o = spans::open("trace.summary", None, None);
    black_box(summarize(&events));
    s.set("trace.summary_s", spans::close(o));
}

/// Calls the job's own map and reduce closures standalone, over the
/// whole dataset, outside the simulation.
fn kernel_metrics(s: &mut Sample, job: &ShuffleJob) {
    let r = job.num_reduces;
    let o = spans::open("sort.map_kernel", None, None);
    let mut parts: Vec<Vec<Payload>> = (0..r).map(|_| Vec::with_capacity(job.num_maps)).collect();
    for m in 0..job.num_maps {
        let mut rng = SplitMix64::new(m as u64);
        for (p, block) in (job.map)(m, r, &mut rng).into_iter().enumerate() {
            parts[p].push(block);
        }
    }
    s.set("sort.map_kernel_s", spans::close(o));
    let o = spans::open("sort.reduce_kernel", None, None);
    for (p, blocks) in parts.iter().enumerate() {
        black_box((job.reduce)(p, blocks));
    }
    s.set("sort.reduce_kernel_s", spans::close(o));
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// User + system CPU seconds of this process, all threads
/// (`/proc/self/stat` fields 14 and 15, in USER_HZ = 100 ticks).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_kind_counter_counts_every_kind() {
        use exo_rt::trace::{Event, EventKind, FailureEvent, FailureKind, IoDir, IoEvent};
        let ev = |kind| Event { at_us: 0, kind };
        let events = [
            ev(EventKind::Io(IoEvent {
                node: 0,
                dir: IoDir::Read,
                bytes: 1,
            })),
            ev(EventKind::Io(IoEvent {
                node: 1,
                dir: IoDir::Write,
                bytes: 2,
            })),
            ev(EventKind::Failure(FailureEvent {
                node: 3,
                kind: FailureKind::NodeKilled,
            })),
        ];
        let n = count_kinds(&events);
        assert_eq!(n.iter().sum::<u64>(), 3);
        assert_eq!(n[KINDS.iter().position(|k| *k == "Io").unwrap()], 2);
        assert_eq!(n[KINDS.iter().position(|k| *k == "Failure").unwrap()], 1);
    }
}
