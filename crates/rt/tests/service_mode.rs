//! End-to-end behaviour tests for `run_service`: one runtime, a stream
//! of jobs from multiple tenants sharing the fair-share dispatcher.

use bytes::Bytes;
use exo_rt::{
    run_service, CpuCost, JobParams, NodeId, Payload, RtConfig, SchedulingStrategy, TaskCtx,
    TenantId, TenantQuota, TraceConfig, WatchConfig,
};
use exo_sim::{ClusterSpec, NodeSpec, SimDuration};

fn cluster(nodes: usize) -> RtConfig {
    RtConfig::new(ClusterSpec::homogeneous(NodeSpec::i3_2xlarge(), nodes))
}

fn const_task(v: Vec<u8>) -> impl Fn(TaskCtx) -> Vec<Payload> + Send + Sync + 'static {
    move |_ctx| vec![Payload::inline(Bytes::from(v.clone()))]
}

fn params(tenant: u32) -> JobParams {
    JobParams {
        tenant: TenantId(tenant),
        priority: false,
        label: "test",
    }
}

/// A driver that fans `tasks` one-second tasks across the cluster,
/// waits for all of them, and returns a tenant-tagged checksum.
fn fanout_driver(tasks: usize, tag: u8) -> impl FnOnce(&exo_rt::RtHandle) -> u64 + Send + 'static {
    move |rt| {
        let refs: Vec<_> = (0..tasks)
            .map(|_| {
                rt.task(const_task(vec![tag]))
                    .cpu(CpuCost::fixed(SimDuration::from_secs(1)))
                    .strategy(SchedulingStrategy::Spread)
                    .submit_one()
            })
            .collect();
        rt.wait_all(&refs);
        refs.iter()
            .map(|r| rt.get_one(r).unwrap().data[0] as u64)
            .sum()
    }
}

#[test]
fn three_tenants_share_one_runtime_without_isolation_violations() {
    let slots_per_tenant = (4 * 8 / 2) as u32; // half the cluster each, max
    let mut cfg = cluster(4)
        .with_tenant(
            TenantId(0),
            TenantQuota {
                weight: 2,
                cpu_slots: Some(slots_per_tenant as usize),
                store_bytes: None,
            },
        )
        .with_tenant(
            TenantId(1),
            TenantQuota {
                weight: 1,
                cpu_slots: Some(slots_per_tenant as usize),
                store_bytes: None,
            },
        )
        .with_tenant(
            TenantId(2),
            TenantQuota {
                weight: 1,
                cpu_slots: Some(slots_per_tenant as usize),
                store_bytes: None,
            },
        );
    cfg.trace = TraceConfig::on();
    cfg.watch = Some(WatchConfig {
        tenant_slot_quotas: vec![
            (0, slots_per_tenant),
            (1, slots_per_tenant),
            (2, slots_per_tenant),
        ],
    });
    let (report, outcomes) = run_service(cfg, |svc| {
        let mut handles = Vec::new();
        for round in 0..2u8 {
            for tenant in 0..3u32 {
                let tag = 10 * (tenant as u8 + 1) + round;
                handles.push((
                    tenant,
                    tag,
                    svc.submit_job(params(tenant), fanout_driver(12, tag)),
                ));
                svc.sleep(SimDuration::from_millis(200));
            }
        }
        handles
            .into_iter()
            .map(|(tenant, tag, h)| (tenant, tag, h.join()))
            .collect::<Vec<_>>()
    });

    // Every job computed the right answer under contention.
    assert_eq!(outcomes.len(), 6);
    for (_, tag, res) in &outcomes {
        assert_eq!(res.result, 12 * *tag as u64);
    }
    // The stream genuinely overlapped: some pair of jobs was in flight
    // at the same time (admitted before the other finished, both ways).
    let overlapping = outcomes.iter().enumerate().any(|(i, (_, _, a))| {
        outcomes
            .iter()
            .skip(i + 1)
            .any(|(_, _, b)| a.admitted_us < b.finished_us && b.admitted_us < a.finished_us)
    });
    assert!(
        overlapping,
        "expected concurrent jobs, got a serial schedule"
    );
    // The watcher confirms no tenant ever exceeded its cpu quota.
    let incidents = report.incidents.expect("watch was configured");
    let violations = incidents
        .incidents
        .iter()
        .filter(|i| i.kind == exo_rt::trace::IncidentKind::IsolationViolation)
        .count();
    assert_eq!(violations, 0, "tenant cpu quota exceeded");
}

#[test]
fn lone_job_respects_its_tenant_cpu_quota() {
    // A job admitted while no other job is live must still wait on its
    // tenant's cpu_slots cap: one slot serialises eight 1-s tasks.
    let cfg = cluster(1).with_tenant(
        TenantId(0),
        TenantQuota {
            weight: 1,
            cpu_slots: Some(1),
            store_bytes: None,
        },
    );
    let (_report, res) = run_service(cfg, |svc| {
        svc.submit_job(params(0), fanout_driver(8, 3)).join()
    });
    assert_eq!(res.result, 8 * 3);
    assert!(
        res.jct_us() >= 8_000_000,
        "a 1-slot tenant ran eight 1-s tasks in {}us",
        res.jct_us()
    );
}

#[test]
fn equal_quota_tenants_get_equal_throughput() {
    // Two tenants, equal weight, identical jobs submitted back-to-back:
    // weighted fair sharing should give them near-identical JCTs.
    let cfg = cluster(4)
        .with_tenant(
            TenantId(0),
            TenantQuota {
                weight: 1,
                cpu_slots: None,
                store_bytes: None,
            },
        )
        .with_tenant(
            TenantId(1),
            TenantQuota {
                weight: 1,
                cpu_slots: None,
                store_bytes: None,
            },
        );
    let (_report, (a, b)) = run_service(cfg, |svc| {
        let ha = svc.submit_job(params(0), fanout_driver(64, 1));
        let hb = svc.submit_job(params(1), fanout_driver(64, 2));
        (ha.join(), hb.join())
    });
    assert_eq!(a.result, 64);
    assert_eq!(b.result, 128);
    let (ja, jb) = (a.jct_us() as f64, b.jct_us() as f64);
    let ratio = ja.max(jb) / ja.min(jb).max(1.0);
    assert!(
        ratio < 1.10,
        "equal-quota tenants diverged: jct_a={ja}us jct_b={jb}us (ratio {ratio:.3})"
    );
}

/// One full service run used by the determinism and fault tests: job A
/// (tenant 1) loses its producer's node mid-run and must reconstruct;
/// job B (tenant 2) runs a pinned task chain on an unaffected node
/// across the failure window.
fn faulted_two_job_run() -> (exo_rt::RunReport, (u8, u8), (u32, u32)) {
    let mut cfg = cluster(4);
    cfg.trace = TraceConfig::on();
    cfg.watch = Some(WatchConfig::default());
    let (report, (ra, rb)) = run_service(cfg, |svc| {
        let ha = svc.submit_job(params(1), |rt: &exo_rt::RtHandle| {
            let a = rt
                .task(const_task(vec![9u8; 256]))
                .on_node(NodeId(1))
                .cpu(CpuCost::fixed(SimDuration::from_secs(1)))
                .submit_one();
            rt.wait_all(std::slice::from_ref(&a));
            rt.kill_node(
                NodeId(1),
                rt.now() + SimDuration::from_secs(1),
                Some(SimDuration::from_secs(30)),
            );
            rt.sleep(SimDuration::from_secs(5)); // let the failure land
            let b = rt
                .task(|ctx: TaskCtx| vec![Payload::inline(Bytes::from(vec![ctx.args[0].data[0]]))])
                .arg(&a)
                .on_node(NodeId(2))
                .submit_one();
            rt.get_one(&b).unwrap().data[0]
        });
        let hb = svc.submit_job(params(2), |rt: &exo_rt::RtHandle| {
            let mut prev = rt
                .task(const_task(vec![7]))
                .on_node(NodeId(3))
                .cpu(CpuCost::fixed(SimDuration::from_secs(2)))
                .submit_one();
            for _ in 0..3 {
                prev = rt
                    .task(|ctx: TaskCtx| {
                        vec![Payload::inline(Bytes::from(vec![ctx.args[0].data[0]]))]
                    })
                    .arg(&prev)
                    .on_node(NodeId(3))
                    .cpu(CpuCost::fixed(SimDuration::from_secs(2)))
                    .submit_one();
            }
            rt.get_one(&prev).unwrap().data[0]
        });
        let (ra, rb) = (ha.join(), hb.join());
        ((ra.result, rb.result), (ra.job.0, rb.job.0))
    });
    (report, ra, rb)
}

#[test]
fn fault_reconstruction_is_scoped_to_the_losing_job() {
    let (report, (va, vb), (job_a, job_b)) = faulted_two_job_run();
    assert_eq!(va, 9);
    assert_eq!(vb, 7);
    assert_eq!(report.metrics.node_failures, 1);
    assert!(
        report.metrics.tasks_reexecuted >= 1,
        "lineage reconstruction should re-run job A's producer"
    );
    // Only job A — whose producer's output died with node 1 — sees
    // retries; job B's tasks never re-execute.
    let mut retries_a = 0u32;
    for ev in &report.trace {
        if let exo_rt::trace::EventKind::Task(t) = &ev.kind {
            if t.retry {
                assert_eq!(
                    t.job, job_a,
                    "retry span leaked into job {} (expected only job {job_a})",
                    t.job
                );
                retries_a += 1;
            }
            if t.job == job_b {
                assert_eq!(t.node, 3, "job B's pinned chain moved nodes");
            }
        }
    }
    assert!(retries_a >= 1, "expected at least one retry span for job A");
}

#[test]
fn faulted_service_rerun_is_bit_identical() {
    let (r1, v1, ids1) = faulted_two_job_run();
    let (r2, v2, ids2) = faulted_two_job_run();
    assert_eq!(v1, v2);
    assert_eq!(ids1, ids2);
    assert_eq!(r1.end_time, r2.end_time);
    assert_eq!(r1.metrics.net_bytes, r2.metrics.net_bytes);
    assert_eq!(r1.trace.len(), r2.trace.len());
    // The incident stream — including any failure-window detections —
    // pins bit-for-bit across reruns.
    let i1 = r1.incidents.expect("watch on").to_json().render();
    let i2 = r2.incidents.expect("watch on").to_json().render();
    assert_eq!(i1, i2, "incident stream diverged across identical reruns");
}

/// Job A fills 950 MB of a one-node, 1 GB store and drops it at t=1 s,
/// then runs until t=11 s; job B registers at t=0.5 s under that store
/// pressure. Returns B's admission time and A's finish time.
fn parked_registration_run(watch: bool) -> (u64, u64) {
    let mut cfg = cluster(1);
    cfg.object_store_capacity = Some(1_000_000_000);
    if watch {
        cfg.watch = Some(WatchConfig::default());
    }
    let (_report, (a, b)) = run_service(cfg, |svc| {
        let ha = svc.submit_job(params(0), |rt: &exo_rt::RtHandle| {
            let big = rt.put(Payload::ghost(950_000_000));
            rt.sleep(SimDuration::from_secs(1));
            drop(big);
            rt.sleep(SimDuration::from_secs(10));
        });
        svc.sleep(SimDuration::from_millis(500));
        let hb = svc.submit_job(params(1), |_rt: &exo_rt::RtHandle| {});
        (ha.join(), hb.join())
    });
    (b.admitted_us, a.finished_us)
}

#[test]
fn admission_rechecks_store_pressure_without_an_observer() {
    for watch in [false, true] {
        let (b_admitted, a_finished) = parked_registration_run(watch);
        assert_eq!(a_finished, 11_000_000, "watch={watch}");
        // The first observer tick after the drop at t=1 s admits B.
        assert_eq!(b_admitted, 1_100_000, "watch={watch}");
        assert!(b_admitted < a_finished, "watch={watch}");
    }
}
