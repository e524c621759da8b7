//! Multi-job, multi-tenant job management: per-job id minting, per-tenant
//! quotas, deterministic weighted-fair task selection with a priority
//! lane, and admission control under store pressure.
//!
//! ## Determinism
//!
//! Every data structure here iterates in id order (`BTreeMap`/`BTreeSet`),
//! selection ties break on `(tenant, job, task)` ids, and virtual-service
//! counters advance by integer increments — so two runs that observe the
//! same command sequence make bit-identical scheduling decisions. The
//! coordinator protocol (connect each job's driver *before* spawning its
//! thread) makes the `RegisterJob` order itself deterministic.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use exo_sim::engine::Reply;

use crate::command::RtError;
use crate::ids::{pack_id, JobId, ObjectId, TaskId, TenantId};

/// Fixed-point scale for the weighted-round-robin virtual-service
/// counters: a tenant of weight `w` pays `SERVICE_SCALE / w` virtual
/// units per scheduled task, so higher-weight tenants accumulate service
/// debt more slowly and are picked more often.
const SERVICE_SCALE: u64 = 1 << 20;

/// Per-tenant resource limits and fair-share weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantQuota {
    /// Fair-share weight (relative share of cluster CPU when contended).
    /// Clamped to ≥ 1.
    pub weight: u32,
    /// Hard cap on concurrently scheduled tasks (cpu slots) for this
    /// tenant, across all its jobs. `None` = uncapped.
    pub cpu_slots: Option<usize>,
    /// Soft cap on live store bytes owned by this tenant; allocations
    /// beyond it are routed to fallback (disk) storage rather than
    /// squeezing other tenants out of memory. `None` = uncapped.
    pub store_bytes: Option<u64>,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            weight: 1,
            cpu_slots: None,
            store_bytes: None,
        }
    }
}

/// Parameters a driver supplies when registering a job.
#[derive(Clone, Debug)]
pub struct JobParams {
    /// Tenant the job bills to. Unknown tenants get a default quota
    /// (weight 1, uncapped).
    pub tenant: TenantId,
    /// Priority-lane jobs are scheduled ahead of all fair-share traffic
    /// (still subject to their tenant's cpu quota).
    pub priority: bool,
    /// Human-readable label carried into traces and reports.
    pub label: &'static str,
}

impl Default for JobParams {
    fn default() -> Self {
        JobParams {
            tenant: TenantId(0),
            priority: false,
            label: "job",
        }
    }
}

/// Live state of one admitted job.
pub struct JobState {
    pub tenant: TenantId,
    pub priority: bool,
    pub label: &'static str,
    /// Per-job id counters; raw ids pack the job id in the high bits so
    /// job 0's ids equal the old global counters.
    pub next_task: u64,
    pub next_obj: u64,
    pub next_waiter: u64,
    /// Tasks whose arguments are all available, waiting for the
    /// fair-share dispatcher to pick them.
    pub ready: BTreeSet<TaskId>,
    /// Virtual time (µs) at admission.
    pub admitted_at_us: u64,
    /// Set once the driver sent `FinishJob`.
    pub finished: bool,
    /// First unrecoverable error hit by this job, if any. Scoped per
    /// job: one tenant's lost object must not fail another's `get`.
    pub failed: Option<RtError>,
}

impl JobState {
    fn new(params: &JobParams, now_us: u64) -> JobState {
        JobState {
            tenant: params.tenant,
            priority: params.priority,
            label: params.label,
            next_task: 0,
            next_obj: 0,
            next_waiter: 0,
            ready: BTreeSet::new(),
            admitted_at_us: now_us,
            finished: false,
            failed: None,
        }
    }

    /// Mint the next task id for this job.
    pub fn fresh_task(&mut self, job: JobId) -> TaskId {
        let id = TaskId(pack_id(job, self.next_task));
        self.next_task += 1;
        id
    }

    /// Mint `n` consecutive object ids for this job; returns the first.
    pub fn fresh_objs(&mut self, job: JobId, n: usize) -> ObjectId {
        let id = ObjectId(pack_id(job, self.next_obj));
        self.next_obj += n as u64;
        id
    }

    /// Mint the next waiter id for this job.
    pub fn fresh_waiter(&mut self, job: JobId) -> u64 {
        let id = pack_id(job, self.next_waiter);
        self.next_waiter += 1;
        id
    }
}

/// A queued-or-admitted decision from [`JobManager::register`].
pub enum Admission {
    /// Job admitted immediately; reply now.
    Admitted(JobId, Reply<JobId>),
    /// Store pressure too high; registration parked until pressure
    /// clears or a job finishes.
    Queued,
}

/// The job manager: owns all per-job state, tenant quotas, the
/// fair-share picker, and the admission queue.
pub struct JobManager {
    jobs: BTreeMap<JobId, JobState>,
    next_job: u32,
    /// Configured quotas, keyed by tenant id.
    tenants: BTreeMap<u32, TenantQuota>,
    /// Tasks currently scheduled or running per tenant (cpu-slot usage).
    in_service: BTreeMap<u32, usize>,
    /// Weighted-round-robin virtual service per tenant. Candidates are
    /// clamped up to [`JobManager::vtime`] at pick time, so a tenant
    /// re-entering contention starts at the global virtual clock and
    /// cannot burst on banked idle credit.
    vservice: BTreeMap<u32, u64>,
    /// Global virtual clock: the pre-increment virtual service of the
    /// most recently picked tenant. Monotone non-decreasing.
    vtime: u64,
    /// Registrations parked by admission control, FIFO.
    pending_admission: VecDeque<(JobParams, Reply<JobId>)>,
    /// Jobs admitted and not yet finished.
    live_jobs: usize,
}

impl JobManager {
    pub fn new(tenants: &[(TenantId, TenantQuota)]) -> JobManager {
        let mut map = BTreeMap::new();
        for (t, q) in tenants {
            let mut q = *q;
            q.weight = q.weight.max(1);
            map.insert(t.0, q);
        }
        JobManager {
            jobs: BTreeMap::new(),
            next_job: 0,
            tenants: map,
            in_service: BTreeMap::new(),
            vservice: BTreeMap::new(),
            vtime: 0,
            pending_admission: VecDeque::new(),
            live_jobs: 0,
        }
    }

    /// Quota for a tenant (default when unconfigured).
    pub fn quota(&self, tenant: TenantId) -> TenantQuota {
        self.tenants.get(&tenant.0).copied().unwrap_or_default()
    }

    pub fn job(&self, job: JobId) -> Option<&JobState> {
        self.jobs.get(&job)
    }

    /// State for `job`, creating a default entry if the runtime has never
    /// seen it (e.g. ids minted before any explicit registration). Does
    /// *not* count as an admission: `live_jobs` is untouched.
    pub fn ensure(&mut self, job: JobId) -> &mut JobState {
        self.next_job = self.next_job.max(job.0 + 1);
        self.jobs
            .entry(job)
            .or_insert_with(|| JobState::new(&JobParams::default(), 0))
    }

    /// Iterate admitted jobs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &JobState)> {
        self.jobs.iter().map(|(id, st)| (*id, st))
    }

    pub fn live_jobs(&self) -> usize {
        self.live_jobs
    }

    /// Admit a job now (admission control already passed). Returns the
    /// new job id.
    pub fn admit(&mut self, params: &JobParams, now_us: u64) -> JobId {
        let id = JobId(self.next_job);
        self.next_job += 1;
        self.jobs.insert(id, JobState::new(params, now_us));
        self.live_jobs += 1;
        id
    }

    /// Try to admit a registration, or park it. `pressured` is the live
    /// store-pressure signal (utilisation over threshold or an open
    /// spill-storm incident).
    pub fn register(
        &mut self,
        params: JobParams,
        reply: Reply<JobId>,
        now_us: u64,
        pressured: bool,
    ) -> Admission {
        // Priority jobs bypass admission queueing; others queue behind
        // any already-parked registration to preserve FIFO fairness.
        if !params.priority && (pressured || !self.pending_admission.is_empty()) {
            self.pending_admission.push_back((params, reply));
            return Admission::Queued;
        }
        let id = self.admit(&params, now_us);
        Admission::Admitted(id, reply)
    }

    /// Mark a job finished. Its remaining state stays around (objects
    /// may outlive the driver until released), but it no longer counts
    /// against live-job admission pressure.
    pub fn finish(&mut self, job: JobId) {
        if let Some(st) = self.jobs.get_mut(&job) {
            if !st.finished {
                st.finished = true;
                self.live_jobs = self.live_jobs.saturating_sub(1);
            }
        }
    }

    /// Drain up to all parked registrations that admission now allows.
    /// Returns `(job, reply)` pairs to resolve, in FIFO order.
    pub fn drain_admission(&mut self, now_us: u64, pressured: bool) -> Vec<(JobId, Reply<JobId>)> {
        let mut out = Vec::new();
        if !pressured {
            while let Some((params, reply)) = self.pending_admission.pop_front() {
                let id = self.admit(&params, now_us);
                out.push((id, reply));
            }
        }
        out
    }

    pub fn pending_admissions(&self) -> usize {
        self.pending_admission.len()
    }

    /// A task entered service (scheduled onto a node queue). Only
    /// [`JobManager::pick`] hands out tasks, so the tenant is always
    /// below its cpu cap here.
    pub fn task_scheduled(&mut self, tenant: TenantId) {
        debug_assert!(
            self.tenant_has_slot(tenant),
            "tenant {tenant:?} scheduled past its cpu_slots cap"
        );
        *self.in_service.entry(tenant.0).or_insert(0) += 1;
    }

    /// A task left service (completed, or requeued by a failure).
    pub fn task_unscheduled(&mut self, tenant: TenantId) {
        if let Some(n) = self.in_service.get_mut(&tenant.0) {
            *n = n.saturating_sub(1);
        }
    }

    pub fn in_service(&self, tenant: TenantId) -> usize {
        self.in_service.get(&tenant.0).copied().unwrap_or(0)
    }

    /// Park a ready task in its job's pool.
    pub fn push_ready(&mut self, task: TaskId) {
        if let Some(st) = self.jobs.get_mut(&task.job()) {
            st.ready.insert(task);
        }
    }

    /// True when any job has a task parked in its ready pool.
    pub fn has_ready(&self) -> bool {
        self.jobs.values().any(|st| !st.ready.is_empty())
    }

    fn tenant_has_slot(&self, tenant: TenantId) -> bool {
        match self.quota(tenant).cpu_slots {
            Some(cap) => self.in_service(tenant) < cap,
            None => true,
        }
    }

    /// Pick the next ready task to schedule, or `None` when every ready
    /// task is blocked by its tenant's cpu quota (or no task is ready).
    ///
    /// Order: the priority lane first — among priority jobs whose tenant
    /// has a free quota slot, the smallest `(job, task)`; then weighted
    /// round-robin across tenants — the candidate tenant with the least
    /// virtual service (ties to the smaller tenant id), and within it
    /// the smallest `(job, task)`. The picked task is removed from its
    /// pool and the tenant's virtual service advances by
    /// `SERVICE_SCALE / weight`.
    pub fn pick(&mut self) -> Option<TaskId> {
        // Priority lane.
        let mut choice: Option<TaskId> = None;
        for (_, st) in self.jobs.iter() {
            if !st.priority {
                continue;
            }
            let Some(&cand) = st.ready.first() else {
                continue;
            };
            if !self.tenant_has_slot(st.tenant) {
                continue;
            }
            if choice.is_none_or(|c| cand < c) {
                choice = Some(cand);
            }
            break; // jobs iterate in id order; first eligible is minimal
        }
        if choice.is_none() {
            // Fair-share lane: gather candidate tenants (≥1 ready task,
            // quota slot free), pick min (vservice, tenant).
            let mut tenant_ready: BTreeMap<u32, TaskId> = BTreeMap::new();
            for (_, st) in self.jobs.iter() {
                if st.priority {
                    continue;
                }
                let Some(&first) = st.ready.first() else {
                    continue;
                };
                // Jobs iterate in id order, so the first job seen for a
                // tenant holds that tenant's minimal (job, task).
                tenant_ready.entry(st.tenant.0).or_insert(first);
            }
            let mut best: Option<(u64, u32, TaskId)> = None;
            for (&tenant, &task) in &tenant_ready {
                if !self.tenant_has_slot(TenantId(tenant)) {
                    continue;
                }
                // Clamp to the global virtual clock: new entrants and
                // tenants returning from idle start at `vtime`, so no
                // tenant banks credit while it has nothing to run.
                let vs = self
                    .vservice
                    .get(&tenant)
                    .copied()
                    .unwrap_or(self.vtime)
                    .max(self.vtime);
                if best.is_none_or(|(bvs, bt, _)| (vs, tenant) < (bvs, bt)) {
                    best = Some((vs, tenant, task));
                }
            }
            if let Some((vs, tenant, task)) = best {
                let w = self.quota(TenantId(tenant)).weight.max(1) as u64;
                self.vtime = vs;
                self.vservice.insert(tenant, vs + SERVICE_SCALE / w);
                choice = Some(task);
            }
        }
        let picked = choice?;
        // audit:allow(P01): `picked` was read out of exactly this job's
        // ready set above; no job is removed between the read and here.
        self.jobs
            .get_mut(&picked.job())
            .expect("picked task's job exists")
            .ready
            .remove(&picked);
        Some(picked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr(tenants: &[(u32, TenantQuota)]) -> JobManager {
        let t: Vec<(TenantId, TenantQuota)> =
            tenants.iter().map(|(id, q)| (TenantId(*id), *q)).collect();
        JobManager::new(&t)
    }

    fn params(tenant: u32, priority: bool) -> JobParams {
        JobParams {
            tenant: TenantId(tenant),
            priority,
            label: "t",
        }
    }

    #[test]
    fn wrr_respects_weights() {
        let mut m = mgr(&[
            (
                0,
                TenantQuota {
                    weight: 2,
                    ..TenantQuota::default()
                },
            ),
            (
                1,
                TenantQuota {
                    weight: 1,
                    ..TenantQuota::default()
                },
            ),
        ]);
        let j0 = m.admit(&params(0, false), 0);
        let j1 = m.admit(&params(1, false), 0);
        for s in 0..30u64 {
            m.push_ready(TaskId(pack_id(j0, s)));
            m.push_ready(TaskId(pack_id(j1, s)));
        }
        let mut counts = [0usize; 2];
        for _ in 0..30 {
            let t = m.pick().unwrap();
            counts[m.job(t.job()).unwrap().tenant.0 as usize] += 1;
        }
        // Weight 2:1 → ~20:10 split.
        assert_eq!(counts, [20, 10]);
    }

    #[test]
    fn cpu_quota_blocks_and_unblocks() {
        let mut m = mgr(&[(
            0,
            TenantQuota {
                weight: 1,
                cpu_slots: Some(2),
                store_bytes: None,
            },
        )]);
        let j0 = m.admit(&params(0, false), 0);
        let _j1 = m.admit(&params(1, false), 0);
        for s in 0..4u64 {
            m.push_ready(TaskId(pack_id(j0, s)));
        }
        let a = m.pick().unwrap();
        m.task_scheduled(TenantId(0));
        let b = m.pick().unwrap();
        m.task_scheduled(TenantId(0));
        assert_eq!((a.job(), b.job()), (j0, j0));
        assert!(m.pick().is_none(), "quota of 2 exhausted");
        m.task_unscheduled(TenantId(0));
        assert!(m.pick().is_some(), "slot freed, pick resumes");
    }

    #[test]
    fn priority_lane_preempts_fair_share() {
        let mut m = mgr(&[]);
        let j0 = m.admit(&params(0, false), 0);
        let j1 = m.admit(&params(1, true), 0);
        m.push_ready(TaskId(pack_id(j0, 0)));
        m.push_ready(TaskId(pack_id(j1, 0)));
        let t = m.pick().unwrap();
        assert_eq!(t.job(), j1, "priority job wins");
    }

    #[test]
    fn wrr_clamps_idle_credit_to_vtime() {
        // A tenant that sat idle while another consumed service must not
        // burst ahead on banked credit when it re-enters contention.
        let mut m = mgr(&[]);
        let j0 = m.admit(&params(0, false), 0);
        let j1 = m.admit(&params(1, false), 0);
        for s in 0..10u64 {
            m.push_ready(TaskId(pack_id(j0, s)));
        }
        for _ in 0..10 {
            assert_eq!(m.pick().unwrap().job(), j0);
        }
        // Tenant 1 arrives late with a burst of ready tasks.
        for s in 0..20u64 {
            m.push_ready(TaskId(pack_id(j0, 100 + s)));
            m.push_ready(TaskId(pack_id(j1, s)));
        }
        let mut counts = [0usize; 2];
        for _ in 0..20 {
            let t = m.pick().unwrap();
            counts[m.job(t.job()).unwrap().tenant.0 as usize] += 1;
        }
        // Equal weights from here on: the late tenant alternates rather
        // than monopolising on its zero service history.
        assert_eq!(counts, [10, 10]);
    }

    #[test]
    fn admission_queues_under_pressure_and_drains_fifo() {
        let mut m = mgr(&[]);
        let _j0 = m.admit(&params(0, false), 0);
        assert_eq!(m.pending_admissions(), 0);
        // Can't build a Reply outside an engine; exercise the FIFO
        // predicate through the pressured flag + drain bookkeeping
        // directly on the queue-free paths.
        assert!(m.drain_admission(5, true).is_empty());
        assert!(m.drain_admission(5, false).is_empty());
    }
}

/// Property tests for the fair-share picker: quota safety, bounded
/// starvation under weighted round-robin, and bit-exact determinism of
/// the full admit/ready/pick/complete state machine.
#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::ids::pack_id;
    use proptest::prelude::*;

    /// Build a manager with one non-priority job per tenant.
    fn build(tenants: &[(u32, Option<usize>)]) -> (JobManager, Vec<JobId>) {
        let quotas: Vec<(TenantId, TenantQuota)> = tenants
            .iter()
            .enumerate()
            .map(|(i, (w, cap))| {
                (
                    TenantId(i as u32),
                    TenantQuota {
                        weight: *w,
                        cpu_slots: *cap,
                        store_bytes: None,
                    },
                )
            })
            .collect();
        let mut m = JobManager::new(&quotas);
        let jobs: Vec<JobId> = (0..tenants.len())
            .map(|i| {
                m.admit(
                    &JobParams {
                        tenant: TenantId(i as u32),
                        priority: false,
                        label: "prop",
                    },
                    0,
                )
            })
            .collect();
        (m, jobs)
    }

    /// Decodes the generated `(weight, cap)` pairs: a raw cap of 0 means
    /// "uncapped" (the vendored proptest shim has no Option strategy).
    fn decode(raw: &[(u32, usize)]) -> Vec<(u32, Option<usize>)> {
        raw.iter()
            .map(|&(w, c)| (w, if c == 0 { None } else { Some(c) }))
            .collect()
    }

    /// Drive a random op schedule; returns the pick sequence. Checks the
    /// quota invariant at every pick: the manager must never hand out a
    /// task whose tenant is already at its cpu cap.
    fn drive(tenants: &[(u32, Option<usize>)], ops: &[u8]) -> Vec<TaskId> {
        let (mut m, jobs) = build(tenants);
        let n = jobs.len();
        let mut next_seq = vec![0u64; n];
        let mut in_service = vec![0usize; n];
        let mut picks = Vec::new();
        for &op in ops {
            let j = (op as usize / 3) % n;
            match op % 3 {
                // Make a task ready on job j.
                0 => {
                    let t = TaskId(pack_id(jobs[j], next_seq[j]));
                    next_seq[j] += 1;
                    m.push_ready(t);
                }
                // Pick and schedule.
                1 => {
                    if let Some(t) = m.pick() {
                        let tenant = m.job(t.job()).expect("picked job exists").tenant;
                        let i = tenant.0 as usize;
                        if let Some(cap) = tenants[i].1 {
                            assert!(
                                in_service[i] < cap,
                                "tenant {i} picked at cap {cap} (in service {})",
                                in_service[i]
                            );
                        }
                        m.task_scheduled(tenant);
                        in_service[i] += 1;
                        picks.push(t);
                    }
                }
                // Complete one in-service task of the first busy tenant
                // at or after j (deterministic scan).
                _ => {
                    for k in 0..n {
                        let i = (j + k) % n;
                        if in_service[i] > 0 {
                            m.task_unscheduled(TenantId(i as u32));
                            in_service[i] -= 1;
                            break;
                        }
                    }
                }
            }
        }
        picks
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The picker never exceeds any tenant's cpu-slot quota, under
        /// arbitrary interleavings of ready/pick/complete.
        #[test]
        fn quota_never_exceeded(
            raw in proptest::collection::vec((1u32..5, 0usize..4), 2..5),
            ops in proptest::collection::vec(any::<u8>(), 30..300),
        ) {
            drive(&decode(&raw), &ops);
        }

        /// Identical op schedules produce bit-identical pick sequences.
        #[test]
        fn picks_are_deterministic(
            raw in proptest::collection::vec((1u32..5, 0usize..4), 2..5),
            ops in proptest::collection::vec(any::<u8>(), 30..300),
        ) {
            let tenants = decode(&raw);
            let a = drive(&tenants, &ops);
            let b = drive(&tenants, &ops);
            prop_assert_eq!(a, b);
        }

        /// Bounded starvation: with every tenant fully backlogged and no
        /// cpu caps, K consecutive picks give each tenant at least its
        /// weighted proportional share minus a constant slack.
        #[test]
        fn backlogged_tenants_are_never_starved(
            weights in proptest::collection::vec(1u32..6, 2..5),
        ) {
            let tenants: Vec<(u32, Option<usize>)> =
                weights.iter().map(|&w| (w, None)).collect();
            let (mut m, jobs) = build(&tenants);
            let total: u64 = weights.iter().map(|&w| w as u64).sum();
            let k = 60 * weights.len() as u64;
            for (j, job) in jobs.iter().enumerate() {
                for s in 0..k {
                    let _ = j;
                    m.push_ready(TaskId(pack_id(*job, s)));
                }
            }
            let mut counts = vec![0u64; weights.len()];
            for _ in 0..k {
                let t = m.pick().expect("backlog never empties");
                counts[m.job(t.job()).expect("job exists").tenant.0 as usize] += 1;
            }
            for (i, &w) in weights.iter().enumerate() {
                let fair = k * w as u64 / total;
                prop_assert!(
                    counts[i] + 2 >= fair,
                    "tenant {i} (weight {w}) got {} of {k} picks; fair share {fair}",
                    counts[i]
                );
            }
        }
    }
}
