//! Shared multi-tenant service runner: an open-loop stream of job
//! submissions against one shared runtime, used by the `multitenant`
//! bench binary and the `multitenant_small` gate case.
//!
//! The arrival process is fully derived from one seed (exponential
//! inter-arrival gaps, bounded-Pareto job sizes, a deterministic
//! tenant/workload rotation), so a rerun with the same [`MtParams`]
//! reproduces the identical submission schedule — and, because the
//! simulator is conservative, the identical per-job timings.

use exo_agg::{regular_aggregation, AggConfig, PageviewSpec};
use exo_ml::{exoshuffle_training, DatasetSpec, TrainConfig};
use exo_rt::trace::Json;
use exo_rt::{JobParams, RtConfig, RtMetrics, TenantId, TenantQuota};
use exo_shuffle::{run_shuffle, ShuffleVariant, ShuffleWindow};
use exo_sim::{ClusterSpec, NodeSpec, SimDuration, SplitMix64};
use exo_sort::{sort_job, SortSpec};

/// Parameters of one multi-tenant service run.
#[derive(Clone, Copy, Debug)]
pub struct MtParams {
    /// Cluster size (r6i.2xlarge nodes).
    pub nodes: usize,
    /// Jobs in the arrival stream.
    pub jobs: usize,
    /// Seed for the whole arrival process.
    pub seed: u64,
    /// Mean exponential inter-arrival gap, µs.
    pub mean_interarrival_us: u64,
    /// Bounded-Pareto job-size scale (minimum logical bytes).
    pub base_bytes: u64,
    /// Job-size cap (heavy tail truncation).
    pub max_bytes: u64,
}

impl MtParams {
    /// The bench binary's configurations.
    pub fn standard(quick: bool) -> MtParams {
        MtParams {
            nodes: 4,
            jobs: if quick { 9 } else { 24 },
            seed: 42,
            mean_interarrival_us: 1_200_000,
            base_bytes: 1_000_000_000,
            max_bytes: 6_000_000_000,
        }
    }

    /// The pinned gate case: small enough to stay inside gate budget.
    pub fn gate_small() -> MtParams {
        MtParams {
            nodes: 4,
            jobs: 6,
            seed: 42,
            mean_interarrival_us: 600_000,
            base_bytes: 600_000_000,
            max_bytes: 2_000_000_000,
        }
    }
}

/// The three tenants of the standard scenario and their quotas:
/// tenant 0 is the heavy batch tenant (double weight, half the cluster's
/// slots), tenants 1 and 2 are equal-share (the isolation detector pins
/// them against these same caps).
pub fn standard_tenants(nodes: usize) -> Vec<(TenantId, TenantQuota)> {
    let slots = (nodes * 8) as f64;
    let quota = |weight: u32, frac: f64, store_gb: u64| TenantQuota {
        weight,
        cpu_slots: Some((slots * frac) as usize),
        store_bytes: Some(store_gb * 1_000_000_000),
    };
    vec![
        (TenantId(0), quota(2, 0.5, 16)),
        (TenantId(1), quota(1, 0.375, 8)),
        (TenantId(2), quota(1, 0.375, 8)),
    ]
}

/// Workload archetype of one submitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MtKind {
    /// External sort (push*-variant shuffle).
    Sort,
    /// Pageview aggregation (simple shuffle + driver-side fold).
    Agg,
    /// ML loader: per-epoch random-reshuffle training.
    MlLoader,
}

impl MtKind {
    pub fn name(self) -> &'static str {
        match self {
            MtKind::Sort => "sort",
            MtKind::Agg => "agg",
            MtKind::MlLoader => "ml_loader",
        }
    }
}

/// One planned arrival, fully determined by the seed.
#[derive(Clone, Copy, Debug)]
pub struct MtJobPlan {
    pub kind: MtKind,
    pub tenant: u32,
    /// Priority-lane submission (models an interactive query).
    pub priority: bool,
    /// Gap slept before this submission, µs.
    pub arrive_gap_us: u64,
    /// Logical dataset bytes (bounded Pareto).
    pub data_bytes: u64,
    /// Per-job workload seed.
    pub seed: u64,
}

/// Derives the arrival schedule from the parameters. Tenants and
/// workload kinds rotate on coprime strides so every tenant sees every
/// workload; sizes and gaps come from the seeded RNG.
pub fn mt_schedule(p: &MtParams) -> Vec<MtJobPlan> {
    let mut rng = SplitMix64::new(p.seed);
    let mut plans = Vec::with_capacity(p.jobs);
    for k in 0..p.jobs {
        // Exponential gap: -ln(1-u) * mean. `next_f64` is in [0,1), so
        // `1-u` is in (0,1] and the log is finite.
        let u = rng.next_f64();
        let gap = (-(1.0 - u).ln() * p.mean_interarrival_us as f64) as u64;
        // Bounded Pareto (alpha 1.3): heavy-tailed sizes with a cap.
        let v = rng.next_f64().max(1e-9);
        let size = ((p.base_bytes as f64 * v.powf(-1.0 / 1.3)) as u64).min(p.max_bytes);
        let seed = rng.next_u64();
        plans.push(MtJobPlan {
            kind: match k % 3 {
                0 => MtKind::Sort,
                1 => MtKind::Agg,
                _ => MtKind::MlLoader,
            },
            // Stride 2 over 3 tenants decorrelates tenant from kind.
            tenant: ((k * 2) % 3) as u32,
            // Every 7th job is an interactive, priority-lane submission.
            priority: k % 7 == 6,
            arrive_gap_us: gap,
            data_bytes: size,
            seed,
        });
    }
    plans
}

/// Outcome of one job in the stream (timings in virtual µs).
#[derive(Clone, Copy, Debug)]
pub struct MtJobOutcome {
    pub job: u32,
    pub tenant: u32,
    pub kind: MtKind,
    pub priority: bool,
    pub data_bytes: u64,
    pub submitted_us: u64,
    pub admitted_us: u64,
    pub finished_us: u64,
    /// Workload-specific sanity value (e.g. output count); a zero here
    /// means the driver produced nothing, which no planned job does.
    pub check: u64,
}

impl MtJobOutcome {
    pub fn jct_us(&self) -> u64 {
        self.finished_us.saturating_sub(self.admitted_us)
    }

    /// Admission queueing delay, µs.
    pub fn queued_us(&self) -> u64 {
        self.admitted_us.saturating_sub(self.submitted_us)
    }
}

/// Aggregate of one service run.
#[derive(Clone, Debug)]
pub struct MtReport {
    pub outcomes: Vec<MtJobOutcome>,
    pub metrics: RtMetrics,
    /// `IsolationViolation` incidents detected by the forced-on watcher
    /// (zero when the scheduler enforces every cpu quota).
    pub isolation_violations: u64,
    /// All incidents of any kind (diagnostic context).
    pub incidents_total: u64,
    /// End-to-end virtual makespan of the whole stream, µs.
    pub makespan_us: u64,
}

/// Per-tenant JCT summary (nearest-rank percentiles).
#[derive(Clone, Copy, Debug)]
pub struct TenantSummary {
    pub tenant: u32,
    pub jobs: u64,
    pub jct_p50_us: u64,
    pub jct_p99_us: u64,
    pub queued_us: u64,
}

fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl MtReport {
    pub fn tenant_summaries(&self) -> Vec<TenantSummary> {
        let mut tenants: Vec<u32> = self.outcomes.iter().map(|o| o.tenant).collect();
        tenants.sort_unstable();
        tenants.dedup();
        tenants
            .into_iter()
            .map(|t| {
                let mut jcts: Vec<u64> = self
                    .outcomes
                    .iter()
                    .filter(|o| o.tenant == t)
                    .map(|o| o.jct_us())
                    .collect();
                jcts.sort_unstable();
                TenantSummary {
                    tenant: t,
                    jobs: jcts.len() as u64,
                    jct_p50_us: nearest_rank(&jcts, 0.50),
                    jct_p99_us: nearest_rank(&jcts, 0.99),
                    queued_us: self
                        .outcomes
                        .iter()
                        .filter(|o| o.tenant == t)
                        .map(|o| o.queued_us())
                        .sum(),
                }
            })
            .collect()
    }

    /// Stream-wide JCT percentile, µs.
    pub fn jct_quantile_us(&self, q: f64) -> u64 {
        let mut jcts: Vec<u64> = self.outcomes.iter().map(|o| o.jct_us()).collect();
        jcts.sort_unstable();
        nearest_rank(&jcts, q)
    }

    /// Submissions that admission control held back.
    pub fn queued_admissions(&self) -> u64 {
        self.outcomes.iter().filter(|o| o.queued_us() > 0).count() as u64
    }

    /// The machine-readable results document.
    pub fn to_json(&self, p: &MtParams) -> Json {
        let runs: Vec<Json> = self
            .outcomes
            .iter()
            .map(|o| {
                Json::obj()
                    .set("job", o.job)
                    .set("tenant", o.tenant)
                    .set("kind", o.kind.name())
                    .set("priority", o.priority)
                    .set("data_bytes", o.data_bytes)
                    .set("submitted_s", o.submitted_us as f64 / 1e6)
                    .set("admitted_s", o.admitted_us as f64 / 1e6)
                    .set("finished_s", o.finished_us as f64 / 1e6)
                    .set("jct_s", o.jct_us() as f64 / 1e6)
            })
            .collect();
        let tenants: Vec<Json> = self
            .tenant_summaries()
            .iter()
            .map(|t| {
                Json::obj()
                    .set("tenant", t.tenant)
                    .set("jobs", t.jobs)
                    .set("jct_p50_s", t.jct_p50_us as f64 / 1e6)
                    .set("jct_p99_s", t.jct_p99_us as f64 / 1e6)
                    .set("queued_s", t.queued_us as f64 / 1e6)
            })
            .collect();
        Json::obj()
            .set("figure", "multitenant")
            .set("nodes", p.nodes)
            .set("jobs", p.jobs)
            .set("seed", p.seed)
            .set("makespan_s", self.makespan_us as f64 / 1e6)
            .set("net_bytes", self.metrics.net_bytes)
            .set("spilled_bytes", self.metrics.store.spilled_bytes)
            .set("quota_denials", self.metrics.store.quota_denials)
            .set("queued_admissions", self.queued_admissions())
            .set("isolation_violations", self.isolation_violations)
            .set("incidents_total", self.incidents_total)
            .set("tenants", tenants)
            .set("runs", runs)
    }
}

/// Partition count for a job of `bytes` logical size: one map per
/// ~250 MB, clamped so tiny jobs still shuffle and huge ones stay
/// within the small cluster's appetite.
fn partitions_for(bytes: u64) -> usize {
    ((bytes / 250_000_000) as usize).clamp(4, 16)
}

/// Run the full multi-tenant scenario. The `exo-watch` isolation
/// detector is always on, pinned to the same cpu quotas the scheduler
/// enforces — any `IsolationViolation` it reports is a scheduler bug.
pub fn run_multitenant(p: &MtParams) -> MtReport {
    let plans = mt_schedule(p);
    let tenants = standard_tenants(p.nodes);
    let mut cfg = RtConfig::new(ClusterSpec::homogeneous(NodeSpec::r6i_2xlarge(), p.nodes));
    for (t, q) in &tenants {
        cfg = cfg.with_tenant(*t, *q);
    }
    let obs = crate::obs::instrument(&mut cfg);
    // Watch is forced on: the isolation detector doubles as the run's
    // quota auditor.
    let mut watch = cfg.watch.take().unwrap_or_default();
    watch.tenant_slot_quotas = tenants
        .iter()
        .filter_map(|(t, q)| q.cpu_slots.map(|s| (t.0, s as u32)))
        .collect();
    cfg.watch = Some(watch);
    let caps = cfg.cluster.device_caps();

    let (report, outcomes) = crate::runs::timed_run_service(cfg, |svc| {
        let mut handles = Vec::with_capacity(plans.len());
        for plan in &plans {
            let plan = *plan;
            svc.sleep(SimDuration::from_micros(plan.arrive_gap_us));
            let params = JobParams {
                tenant: TenantId(plan.tenant),
                priority: plan.priority,
                label: plan.kind.name(),
            };
            let handle = svc.submit_job(params, move |rt| match plan.kind {
                MtKind::Sort => {
                    let parts = partitions_for(plan.data_bytes);
                    let job = sort_job(SortSpec {
                        data_bytes: plan.data_bytes,
                        num_maps: parts,
                        num_reduces: parts,
                        scale: crate::runs::default_scale(plan.data_bytes),
                        seed: plan.seed,
                    });
                    let outs =
                        run_shuffle(rt, &job, ShuffleVariant::PushStar { map_parallelism: 2 });
                    rt.wait_all(&outs);
                    outs.len() as u64
                }
                MtKind::Agg => {
                    let parts = partitions_for(plan.data_bytes);
                    let cfg = AggConfig {
                        spec: PageviewSpec {
                            data_bytes: plan.data_bytes,
                            num_maps: parts,
                            num_reduces: (parts / 2).max(2),
                            entries_per_map: 1_000,
                            pages: 20_000,
                            seed: plan.seed,
                        },
                        rounds: 1,
                    };
                    let (_, dist) = regular_aggregation(rt, &cfg);
                    // The language distribution is normalized; a sum of
                    // ~1.0 means every reducer's state arrived intact.
                    (dist.iter().sum::<f64>() * 1000.0).round() as u64
                }
                MtKind::MlLoader => {
                    let samples = 10_000usize;
                    let sample_bytes = (plan.data_bytes / samples as u64).clamp(500, 4_000);
                    let cfg = TrainConfig {
                        dataset: DatasetSpec::new(samples, 8, plan.seed)
                            .with_logical_sample_bytes(sample_bytes),
                        epochs: 2,
                        batch_size: 128,
                        lr: 0.5,
                        variant: ShuffleVariant::Simple,
                        window: ShuffleWindow::Full,
                        gpu_ns_per_sample: 40_000.0,
                    };
                    let out = exoshuffle_training(rt, &cfg);
                    out.epoch_times.len() as u64
                }
            });
            handles.push((plan, handle));
        }
        handles
            .into_iter()
            .map(|(plan, h)| {
                let r = h.join();
                MtJobOutcome {
                    job: r.job.0,
                    tenant: plan.tenant,
                    kind: plan.kind,
                    priority: plan.priority,
                    data_bytes: plan.data_bytes,
                    submitted_us: r.submitted_us,
                    admitted_us: r.admitted_us,
                    finished_us: r.finished_us,
                    check: r.result,
                }
            })
            .collect::<Vec<_>>()
    });
    if obs.active() {
        obs.finish(&report, &caps);
    }
    let incidents = report.incidents.as_ref().expect("watch was configured");
    let isolation_violations = incidents
        .incidents
        .iter()
        .filter(|i| i.kind == exo_rt::trace::IncidentKind::IsolationViolation)
        .count() as u64;
    MtReport {
        metrics: report.metrics,
        isolation_violations,
        incidents_total: incidents.len() as u64,
        makespan_us: report.end_time.as_micros(),
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_covers_tenants_and_kinds() {
        let p = MtParams::standard(true);
        let a = mt_schedule(&p);
        let b = mt_schedule(&p);
        assert_eq!(a.len(), 9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.data_bytes, y.data_bytes);
            assert_eq!(x.arrive_gap_us, y.arrive_gap_us);
            assert_eq!(x.tenant, y.tenant);
        }
        for t in 0..3u32 {
            assert!(a.iter().any(|j| j.tenant == t), "tenant {t} missing");
        }
        for k in [MtKind::Sort, MtKind::Agg, MtKind::MlLoader] {
            assert!(a.iter().any(|j| j.kind == k), "kind {k:?} missing");
        }
        assert!(a.iter().any(|j| j.priority), "no priority job in stream");
        assert!(a.iter().all(|j| j.data_bytes >= p.base_bytes));
        assert!(a.iter().all(|j| j.data_bytes <= p.max_bytes));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = [10, 20, 30, 40];
        assert_eq!(nearest_rank(&xs, 0.50), 20);
        assert_eq!(nearest_rank(&xs, 0.99), 40);
        assert_eq!(nearest_rank(&[], 0.5), 0);
    }
}
