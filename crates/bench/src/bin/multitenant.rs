//! Shuffle-as-a-service: an open-loop, multi-tenant job stream against
//! one shared runtime.
//!
//! Three tenants with weighted-fair-share cpu quotas (2:1:1) and
//! per-tenant store budgets submit a seeded arrival process of mixed
//! workloads — external sorts, pageview aggregations, and ML-loader
//! training epochs — with exponential inter-arrival gaps and
//! heavy-tailed (bounded-Pareto) job sizes. Every 7th submission rides
//! the priority lane, modelling an interactive query cutting ahead of
//! batch traffic.
//!
//! Reported per tenant: JCT p50/p99 and total admission-queue delay.
//! The `exo-watch` isolation detector runs pinned to the same cpu
//! quotas the scheduler enforces, so the `isolation_violations` count
//! in `results/multitenant.json` is an end-to-end audit of the
//! fair-share guarantee — it must be zero.

use exo_bench::{write_results, MtParams, Scale, Table};

fn main() {
    let quick = Scale::from_args() == Scale::Quick;
    let p = MtParams::standard(quick);
    println!(
        "# Multi-tenant service — {} jobs, 3 tenants, {}× r6i.2xlarge\n",
        p.jobs, p.nodes
    );

    let report = exo_bench::run_multitenant(&p);

    let mut jobs = Table::new(&[
        "job",
        "tenant",
        "kind",
        "prio",
        "size (GB)",
        "queued (s)",
        "JCT (s)",
    ]);
    for o in &report.outcomes {
        jobs.row(vec![
            o.job.to_string(),
            o.tenant.to_string(),
            o.kind.name().into(),
            if o.priority { "yes".into() } else { "".into() },
            format!("{:.1}", o.data_bytes as f64 / 1e9),
            format!("{:.2}", o.queued_us() as f64 / 1e6),
            format!("{:.2}", o.jct_us() as f64 / 1e6),
        ]);
        assert!(o.check > 0, "job {} produced no output", o.job);
    }
    jobs.print();

    let mut tenants = Table::new(&["tenant", "jobs", "JCT p50 (s)", "JCT p99 (s)", "queued (s)"]);
    for t in report.tenant_summaries() {
        tenants.row(vec![
            t.tenant.to_string(),
            t.jobs.to_string(),
            format!("{:.2}", t.jct_p50_us as f64 / 1e6),
            format!("{:.2}", t.jct_p99_us as f64 / 1e6),
            format!("{:.2}", t.queued_us as f64 / 1e6),
        ]);
    }
    println!();
    tenants.print();

    println!(
        "\nmakespan {:.1} s  net {:.1} GB  spilled {:.1} GB  queued admissions {}  \
         quota denials {}  isolation violations {}",
        report.makespan_us as f64 / 1e6,
        report.metrics.net_bytes as f64 / 1e9,
        report.metrics.store.spilled_bytes as f64 / 1e9,
        report.queued_admissions(),
        report.metrics.store.quota_denials,
        report.isolation_violations,
    );
    assert_eq!(
        report.isolation_violations, 0,
        "scheduler exceeded a tenant's cpu quota"
    );

    write_results("multitenant", report.to_json(&p));
}
