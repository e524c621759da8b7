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

use exo_bench::figure::{number, run, Column, Figure, Scale, View};
use exo_bench::MtParams;
use exo_rt::trace::Json;

fn main() {
    run("multitenant", multitenant);
}

fn multitenant(scale: Scale) -> Figure {
    let p = MtParams::standard(scale == Scale::Quick);
    let results = move || {
        let report = exo_bench::run_multitenant(&p);
        for o in &report.outcomes {
            assert!(o.check > 0, "job {} produced no output", o.job);
        }
        assert_eq!(
            report.isolation_violations, 0,
            "scheduler exceeded a tenant's cpu quota"
        );
        report.to_json(&p)
    };
    // A job's admission-queue delay, from its whole-µs timestamps.
    let queued = |row: &_| {
        let us = |key| Some((number(row, key)? * 1e6).round());
        Some(format!(
            "{:.2}",
            (us("admitted_s")? - us("submitted_s")?).max(0.0) / 1e6
        ))
    };
    Figure {
        header: vec![format!(
            "# Multi-tenant service — {} jobs, 3 tenants, {}× r6i.2xlarge",
            p.jobs, p.nodes
        )],
        results: Box::new(results),
        views: vec![
            View::table(
                "runs",
                vec![
                    Column::text("job", "job"),
                    Column::text("tenant", "tenant"),
                    Column::text("kind", "kind"),
                    Column::new("prio", |row| {
                        let prio = matches!(row.get("priority")?, Json::Bool(true));
                        Some(if prio { "yes" } else { "" }.into())
                    }),
                    Column::num("size (GB)", "data_bytes", 1e9, 1),
                    Column::new("queued (s)", queued),
                    Column::num("JCT (s)", "jct_s", 1.0, 2),
                ],
            ),
            View::table(
                "tenants",
                vec![
                    Column::text("tenant", "tenant"),
                    Column::text("jobs", "jobs"),
                    Column::num("JCT p50 (s)", "jct_p50_s", 1.0, 2),
                    Column::num("JCT p99 (s)", "jct_p99_s", 1.0, 2),
                    Column::num("queued (s)", "queued_s", 1.0, 2),
                ],
            ),
            View::text(|doc| {
                Some(format!(
                    "makespan {:.1} s  net {:.1} GB  spilled {:.1} GB  queued admissions {}  \
                     quota denials {}  isolation violations {}",
                    number(doc, "makespan_s")?,
                    number(doc, "net_bytes")? / 1e9,
                    number(doc, "spilled_bytes")? / 1e9,
                    number(doc, "queued_admissions")?,
                    number(doc, "quota_denials")?,
                    number(doc, "isolation_violations")?,
                ))
            }),
        ],
    }
}
