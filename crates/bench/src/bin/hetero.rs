//! Heterogeneous-cluster presets, exercised end-to-end:
//!
//! 1. A mixed d3.2xlarge (HDD) + i3.2xlarge (NVMe SSD) sort on
//!    [`ClusterSpec::mixed_hdd_ssd`] — the per-node bound profiles show
//!    the HDD nodes disk-bound while the SSD nodes are not.
//! 2. A g4dn.4xlarge trainer + r6i.2xlarge feeder ML-loader cluster
//!    ([`ClusterSpec::ml_loader`]) running the fig8-shaped pipelined
//!    shuffle training.
//!
//! Unlike the figure binaries this always traces and profiles: its whole
//! point is the per-node capacity lines and bound profiles, so both land
//! in `results/hetero_sort.json` / `results/hetero_ml.json` on every run.
//! No run takes `--trace`/`--profile`/`--live`/`--watch`.
//!
//! `--compare` instead runs the mixed HDD+SSD sort once per placement
//! policy (load_balance, bound_aware, hybrid — the hybrid fed with the
//! per-node dominant bounds profiled from the load_balance run) and
//! writes the three-way JCT/spill/net comparison to
//! `results/hetero_policy.json`.

use std::sync::Arc;

use exo_bench::figure::{full_shuffle_training, number, run, Column, Figure, Scale, View};
use exo_bench::obs::{apply_policy, capacity_lines};
use exo_bench::runs::default_scale;
use exo_bench::timed_run;
use exo_ml::exoshuffle_training;
use exo_prof::{profile, ProfileReport};
use exo_rt::trace::{summarize, Json};
use exo_rt::{PlacementPolicy, RtConfig, RtHandle, RunReport, TraceConfig};
use exo_shuffle::{run_shuffle, ShuffleVariant};
use exo_sim::ClusterSpec;
use exo_sort::{sort_job, SortSpec};

/// The sort cluster's d3.2xlarge (HDD) and i3.2xlarge (NVMe) node counts;
/// the HDD nodes come first.
const D3: usize = 2;
const I3: usize = 2;

fn main() {
    if std::env::args().any(|a| a == "--compare") {
        run("hetero_policy", hetero_compare);
    } else {
        run("hetero_sort", hetero_sort);
        run("hetero_ml", hetero_ml);
    }
}

/// A traced run of `driver` on `cfg`, with its profile; `print` prints
/// the trace summary and the profile.
fn traced_run<R: Send>(
    mut cfg: RtConfig,
    print: bool,
    driver: impl FnOnce(&RtHandle) -> R + Send,
) -> (RunReport, R, ProfileReport) {
    cfg.trace = TraceConfig::on();
    let caps = cfg.device_caps();
    let (report, out) = timed_run(cfg, driver);
    let prof = profile(&report.trace, &caps);
    if print {
        let summary = summarize(&report.trace).with_capacities(capacity_lines(&caps));
        println!("{summary}\n{prof}");
    }
    (report, out, prof)
}

/// A sort of `data` bytes over `partitions` with `variant`, returning
/// its JCT in seconds.
fn sort(data: u64, partitions: usize, variant: ShuffleVariant) -> impl FnOnce(&RtHandle) -> f64 {
    let spec = SortSpec {
        data_bytes: data,
        num_maps: partitions,
        num_reduces: partitions,
        scale: default_scale(data),
        seed: 7,
    };
    move |rt| {
        let job = sort_job(spec);
        let t0 = rt.now();
        let outs = run_shuffle(rt, &job, variant);
        rt.wait_all(&outs);
        (rt.now() - t0).as_secs_f64()
    }
}

/// The mixed HDD+SSD sort under all three placement policies. ES-simple,
/// not push*: push-based variants pin merges by affinity, leaving the
/// policy nothing to decide, while simple's reduce stage is all
/// `Default`-strategy placements. Runs with the nodes' natural store
/// capacities (no spill): the regime where placement, not spill
/// scheduling, decides the reduce stage — the weak i3 transmitters must
/// serve every map share fetched away from them, so bound-aware placement
/// keeps more reduces on the SSD nodes.
fn hetero_compare(scale: Scale) -> Figure {
    let quick = scale == Scale::Quick;
    let data: u64 = if quick { 2_000_000_000 } else { 8_000_000_000 };
    let partitions = if quick { 32 } else { 64 };
    let results = move || {
        let policy_run = |policy: Arc<dyn PlacementPolicy>| {
            let name = policy.name();
            let cfg = RtConfig::new(ClusterSpec::mixed_hdd_ssd(D3, I3)).with_placement(policy);
            let simple = sort(data, partitions, ShuffleVariant::Simple);
            let (report, jct, prof) = traced_run(cfg, false, simple);
            let row = Json::obj()
                .set("policy", name)
                .set("jct_s", jct)
                .set("spilled_bytes", report.metrics.store.spilled_bytes)
                .set("net_bytes", report.metrics.net_bytes)
                .set("avoidable_bytes", prof.placement.avoidable_bytes);
            (
                row,
                prof.per_node_bounds
                    .iter()
                    .map(|p| p.dominant())
                    .collect::<Vec<_>>(),
            )
        };
        let (lb, dominants) = policy_run(Arc::new(exo_rt::LoadBalance));
        let (ba, _) = policy_run(Arc::new(exo_rt::BoundAware));
        // The hybrid gets its divergence signal from the load_balance
        // run's per-node bound profile, exactly as an operator re-running
        // a job after a profiled first attempt would.
        let (hy, _) = policy_run(Arc::new(exo_rt::Hybrid::from_bounds(dominants.clone())));
        let not_worse = number(&ba, "jct_s") <= number(&lb, "jct_s");
        Json::obj()
            .set("cluster", format!("mixed_hdd_ssd({D3}, {I3})"))
            .set("variant", "ES-simple")
            .set("data_bytes", data)
            .set("partitions", partitions)
            .set(
                "lb_dominant_bounds",
                dominants
                    .iter()
                    .map(|d| Json::from(d.name()))
                    .collect::<Vec<Json>>(),
            )
            .set("policies", vec![lb, ba, hy])
            .set("bound_aware_not_worse", not_worse)
    };
    Figure {
        header: vec![format!(
            "# Placement-policy comparison — ES-simple sort, {} GB over {D3}x d3.2xlarge (HDD) + {I3}x i3.2xlarge (NVMe)",
            data / 1_000_000_000
        )],
        results: Box::new(results),
        views: vec![
            View::table(
                "policies",
                vec![
                    Column::text("policy", "policy"),
                    Column::num("JCT (s)", "jct_s", 1.0, 3),
                    Column::num("spilled (GB)", "spilled_bytes", 1e9, 2),
                    Column::num("net (GB)", "net_bytes", 1e9, 2),
                    Column::num("avoidable (MB)", "avoidable_bytes", 1e6, 1),
                ],
            ),
            View::text(|doc| {
                let delta = number(doc, "policies.1.jct_s")? - number(doc, "policies.0.jct_s")?;
                let not_worse = matches!(doc.get("bound_aware_not_worse")?, Json::Bool(true));
                Some(format!(
                    "bound_aware vs load_balance: {delta:+.3} s ({})",
                    if not_worse { "not worse" } else { "WORSE" }
                ))
            }),
        ],
    }
}

/// Mixed HDD + SSD sort: same dataset as a homogeneous small sort, but
/// half the nodes seek and half don't.
fn hetero_sort(scale: Scale) -> Figure {
    let quick = scale == Scale::Quick;
    let data: u64 = if quick { 2_000_000_000 } else { 8_000_000_000 };
    let partitions = if quick { 16 } else { 32 };
    let store_capacity = data / 5 / (D3 + I3) as u64;
    let results = move || {
        let mut cfg = RtConfig::new(ClusterSpec::mixed_hdd_ssd(D3, I3));
        cfg.object_store_capacity = Some(store_capacity);
        apply_policy(&mut cfg);
        let push_star = sort(
            data,
            partitions,
            ShuffleVariant::PushStar { map_parallelism: 2 },
        );
        let (report, jct, prof) = traced_run(cfg, true, push_star);
        Json::obj()
            .set("cluster", format!("mixed_hdd_ssd({D3}, {I3})"))
            .set("data_bytes", data)
            .set("partitions", partitions)
            .set("store_capacity", store_capacity)
            .set("jct_s", jct)
            .set("spilled_bytes", report.metrics.store.spilled_bytes)
            .set("net_bytes", report.metrics.net_bytes)
            .set("profile", prof.to_json())
    };
    Figure {
        header: vec![format!(
            "# Heterogeneous sort — {} GB over {D3}x d3.2xlarge (HDD) + {I3}x i3.2xlarge (NVMe)",
            data / 1_000_000_000
        )],
        results: Box::new(results),
        views: vec![View::table(
            "profile.per_node_bounds",
            vec![
                Column::new("node", |row| {
                    Some(format!("node{}", row.get("node")?.render()))
                }),
                Column::new("hardware", |row| {
                    Some(if number(row, "node")? < D3 as f64 {
                        "d3.2xlarge (HDD)".into()
                    } else {
                        "i3.2xlarge (NVMe)".into()
                    })
                }),
                Column::text("dominant bound", "dominant_bound"),
            ],
        )],
    }
}

/// Fig8-shaped pipelined-shuffle training, but on a mixed cluster: one
/// g4dn.4xlarge trainer plus r6i.2xlarge feeder nodes.
fn hetero_ml(scale: Scale) -> Figure {
    let quick = scale == Scale::Quick;
    let feeders = 2;
    let epochs = if quick { 3 } else { 10 };
    let train = full_shuffle_training(if quick { 10_000 } else { 40_000 }, epochs, 40_000.0);
    let results = move || {
        let mut cfg = RtConfig::new(ClusterSpec::ml_loader(feeders));
        apply_policy(&mut cfg);
        let (_, out, prof) = traced_run(cfg, true, |rt| exoshuffle_training(rt, &train));
        Json::obj()
            .set("cluster", format!("ml_loader({feeders})"))
            .set("epochs", epochs)
            .set("total_s", out.total_time.as_secs_f64())
            .set(
                "final_accuracy",
                out.accuracy.last().copied().unwrap_or(0.0),
            )
            .set("profile", prof.to_json())
    };
    Figure {
        header: vec![
            String::new(),
            format!(
                "# Heterogeneous ML loader — {epochs} epochs, g4dn.4xlarge trainer + {feeders}x r6i.2xlarge feeders"
            ),
        ],
        results: Box::new(results),
        views: vec![View::text(|doc| {
            Some(format!(
                "end-to-end: {:.1} s over {} epochs (final accuracy {:.3})",
                number(doc, "total_s")?,
                doc.get("epochs")?.render(),
                number(doc, "final_accuracy")?
            ))
        })],
    }
}
