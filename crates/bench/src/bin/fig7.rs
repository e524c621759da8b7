//! Figure 7: small-I/O mitigations in the data plane (§5.3.2) — spill
//! write fusing and pipelined argument prefetching.
//!
//! The microbenchmark creates 16 GB of objects through a 1 GB object
//! store on a slow (sc1-style) disk, forcing everything to spill, then
//! consumes them all, forcing restores. Object sizes sweep 100 KB–1 MB.
//!
//! Expected shape (paper): with fusing, run time is flat across object
//! sizes; without it, up to ~12× slower at 100 KB objects. Prefetching
//! task arguments cuts the consume phase by 60–80%.

use exo_bench::figure::{number, run, Case, Column, Figure, Scale};
use exo_bench::instrument;
use exo_rt::trace::Json;
use exo_rt::{CpuCost, Payload, RtConfig, TaskCtx};
use exo_sim::{ClusterSpec, NodeSpec, SimDuration};

fn run_once(obj_bytes: u64, fuse: bool, prefetch: bool, total_bytes: u64) -> f64 {
    let cluster = ClusterSpec::homogeneous(NodeSpec::sc1_microbench_node(), 1);
    let caps = cluster.device_caps();
    let mut cfg = RtConfig::new(cluster);
    cfg.fuse_spill_writes = fuse;
    cfg.prefetch_args = prefetch;
    let obs = instrument(&mut cfg);
    let returns_per_task = 64usize;
    let n_objs = (total_bytes / obj_bytes) as usize;
    let n_tasks = n_objs.div_ceil(returns_per_task);
    let (report, _) = exo_bench::timed_run(cfg, |rt| {
        // Produce: hold all refs so memory pressure must spill.
        let mut refs = Vec::with_capacity(n_objs);
        for _ in 0..n_tasks {
            let outs = rt
                .task(move |_ctx: TaskCtx| {
                    (0..returns_per_task)
                        .map(|_| Payload::ghost(obj_bytes))
                        .collect()
                })
                .num_returns(returns_per_task)
                .cpu(CpuCost::fixed(SimDuration::from_micros(200)))
                .submit();
            refs.extend(outs);
        }
        refs.truncate(n_objs);
        rt.wait_all(&refs);
        // Consume: one task per batch of spilled objects; restores happen
        // during staging (pipelined with execution iff prefetch is on).
        let consumers: Vec<_> = refs
            .chunks(returns_per_task)
            .map(|chunk| {
                rt.task(|_ctx: TaskCtx| vec![Payload::ghost(1)])
                    .args(chunk.iter())
                    .cpu(CpuCost::fixed(SimDuration::from_millis(20)))
                    .submit_one()
            })
            .collect();
        rt.wait_all(&consumers);
    });
    obs.finish(&report, &caps);
    report.end_time.as_secs_f64()
}

fn main() {
    run("fig7", fig7);
}

fn fig7(scale: Scale) -> Figure {
    let quick = scale == Scale::Quick;
    let total: u64 = if quick { 2_000_000_000 } else { 8_000_000_000 };
    let sizes: &[u64] = if quick {
        &[250_000, 1_000_000]
    } else {
        &[100_000, 250_000, 1_000_000]
    };
    let cases = sizes
        .iter()
        .map(|&s| {
            Box::new(move || {
                Json::obj()
                    .set("object_bytes", s)
                    .set("default_s", run_once(s, true, true, total))
                    .set("no_fuse_s", run_once(s, false, true, total))
                    .set("no_prefetch_s", run_once(s, true, false, total))
            }) as Case
        })
        .collect();
    Figure {
        header: vec![format!(
            "# Figure 7 — spill/restore {} GB through a 1 GB store (sc1 HDD)",
            total / 1_000_000_000
        )],
        fields: Json::obj()
            .set("node", "sc1_microbench_node")
            .set("total_bytes", total),
        columns: vec![
            Column::new("object size", |row| {
                Some(format!("{:.0} KB", number(row, "object_bytes")? / 1e3))
            }),
            Column::num("default (s)", "default_s", 1.0, 0),
            Column::num("no fusing (s)", "no_fuse_s", 1.0, 0),
            Column::num("no prefetch (s)", "no_prefetch_s", 1.0, 0),
        ],
        cases,
        footer: None,
    }
}
