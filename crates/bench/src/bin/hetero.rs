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
//!
//! `--compare` instead runs the mixed HDD+SSD sort once per placement
//! policy (load_balance, bound_aware, hybrid — the hybrid fed with the
//! per-node dominant bounds profiled from the load_balance run) and
//! writes the three-way JCT/spill/net comparison to
//! `results/hetero_policy.json`.

use std::sync::Arc;

use exo_bench::obs::capacity_lines;
use exo_bench::{quick_mode, write_results, Table};
use exo_ml::{exoshuffle_training, DatasetSpec, TrainConfig};
use exo_prof::{profile, Bound};
use exo_rt::trace::{summarize, Json};
use exo_rt::{PlacementPolicy, RtConfig, TraceConfig};
use exo_shuffle::{run_shuffle, ShuffleVariant, ShuffleWindow};
use exo_sim::ClusterSpec;
use exo_sort::{sort_job, SortSpec};

fn main() {
    if std::env::args().any(|a| a == "--compare") {
        hetero_compare();
        return;
    }
    hetero_sort();
    hetero_ml();
}

/// One policy's metrics from a mixed-cluster sort run.
struct PolicyRun {
    policy: &'static str,
    jct_s: f64,
    spilled: u64,
    net: u64,
    /// Per-node dominant bounds (from the profiled run only).
    dominants: Vec<Bound>,
    /// Argument bytes a locality-optimal placement would have kept local.
    avoidable: u64,
}

/// Run the mixed HDD+SSD sort under one placement policy. ES-simple, not
/// push*: push-based variants pin merges by affinity, leaving the policy
/// nothing to decide, while simple's reduce stage is all
/// `Default`-strategy placements.
fn run_policy_sort(
    cluster: &ClusterSpec,
    data: u64,
    partitions: usize,
    policy: Arc<dyn PlacementPolicy>,
) -> PolicyRun {
    let name = policy.name();
    let mut cfg = RtConfig::new(cluster.clone()).with_placement(policy);
    cfg.trace = TraceConfig::on();
    let spec = SortSpec {
        data_bytes: data,
        num_maps: partitions,
        num_reduces: partitions,
        scale: exo_bench::runs::default_scale(data),
        seed: 7,
    };
    let (report, jct) = exo_bench::timed_run(cfg, |rt| {
        let job = sort_job(spec);
        let t0 = rt.now();
        let outs = run_shuffle(rt, &job, ShuffleVariant::Simple);
        rt.wait_all(&outs);
        rt.now() - t0
    });
    let caps = cluster.device_caps();
    let prof = profile(&report.trace, &caps);
    PolicyRun {
        policy: name,
        jct_s: jct.as_secs_f64(),
        spilled: report.metrics.store.spilled_bytes,
        net: report.metrics.net_bytes,
        dominants: prof.per_node_bounds.iter().map(|p| p.dominant()).collect(),
        avoidable: prof.placement.avoidable_bytes,
    }
}

/// The mixed HDD+SSD sort under all three placement policies. Runs with
/// the nodes' natural store capacities (no spill): the regime where
/// placement, not spill scheduling, decides the reduce stage — the weak
/// i3 transmitters must serve every map share fetched away from them, so
/// bound-aware placement keeps more reduces on the SSD nodes.
fn hetero_compare() {
    let (d3, i3) = (2, 2);
    let cluster = ClusterSpec::mixed_hdd_ssd(d3, i3);
    let data: u64 = if quick_mode() {
        2_000_000_000
    } else {
        8_000_000_000
    };
    let partitions = if quick_mode() { 32 } else { 64 };

    println!(
        "# Placement-policy comparison — ES-simple sort, {} GB over {}x d3.2xlarge (HDD) + {}x i3.2xlarge (NVMe)\n",
        data / 1_000_000_000,
        d3,
        i3
    );

    let lb = run_policy_sort(&cluster, data, partitions, Arc::new(exo_rt::LoadBalance));
    let ba = run_policy_sort(&cluster, data, partitions, Arc::new(exo_rt::BoundAware));
    // The hybrid gets its divergence signal from the load_balance run's
    // per-node bound profile, exactly as an operator re-running a job
    // after a profiled first attempt would.
    let hy = run_policy_sort(
        &cluster,
        data,
        partitions,
        Arc::new(exo_rt::Hybrid::from_bounds(lb.dominants.clone())),
    );

    let mut t = Table::new(&[
        "policy",
        "JCT (s)",
        "spilled (GB)",
        "net (GB)",
        "avoidable (MB)",
    ]);
    for r in [&lb, &ba, &hy] {
        t.row(vec![
            r.policy.into(),
            format!("{:.3}", r.jct_s),
            format!("{:.2}", r.spilled as f64 / 1e9),
            format!("{:.2}", r.net as f64 / 1e9),
            format!("{:.1}", r.avoidable as f64 / 1e6),
        ]);
    }
    t.print();

    let not_worse = ba.jct_s <= lb.jct_s;
    println!(
        "\nbound_aware vs load_balance: {:+.3} s ({})",
        ba.jct_s - lb.jct_s,
        if not_worse { "not worse" } else { "WORSE" }
    );

    let runs: Vec<Json> = [&lb, &ba, &hy]
        .iter()
        .map(|r| {
            Json::obj()
                .set("policy", r.policy)
                .set("jct_s", r.jct_s)
                .set("spilled_bytes", r.spilled)
                .set("net_bytes", r.net)
                .set("avoidable_bytes", r.avoidable)
        })
        .collect();
    write_results(
        "hetero_policy",
        Json::obj()
            .set("figure", "hetero_policy")
            .set("cluster", format!("mixed_hdd_ssd({d3}, {i3})"))
            .set("variant", "ES-simple")
            .set("data_bytes", data)
            .set("partitions", partitions)
            .set(
                "lb_dominant_bounds",
                lb.dominants
                    .iter()
                    .map(|d| Json::from(d.name()))
                    .collect::<Vec<Json>>(),
            )
            .set("policies", runs)
            .set("bound_aware_not_worse", not_worse),
    );
}

/// Mixed HDD + SSD sort: same dataset as a homogeneous small sort, but
/// half the nodes seek and half don't.
fn hetero_sort() {
    let (d3, i3) = (2, 2);
    let cluster = ClusterSpec::mixed_hdd_ssd(d3, i3);
    let data: u64 = if quick_mode() {
        2_000_000_000
    } else {
        8_000_000_000
    };
    let partitions = if quick_mode() { 16 } else { 32 };
    let store_capacity = data / 5 / cluster.num_nodes() as u64;

    println!(
        "# Heterogeneous sort — {} GB over {}x d3.2xlarge (HDD) + {}x i3.2xlarge (NVMe)\n",
        data / 1_000_000_000,
        d3,
        i3
    );

    let mut cfg = RtConfig::new(cluster);
    cfg.object_store_capacity = Some(store_capacity);
    let caps = cfg.device_caps();
    exo_bench::obs::apply_policy(&mut cfg);
    cfg.trace = TraceConfig::on();
    let spec = SortSpec {
        data_bytes: data,
        num_maps: partitions,
        num_reduces: partitions,
        scale: exo_bench::runs::default_scale(data),
        seed: 7,
    };
    let (report, jct) = exo_bench::timed_run(cfg, |rt| {
        let job = sort_job(spec);
        let t0 = rt.now();
        let outs = run_shuffle(rt, &job, ShuffleVariant::PushStar { map_parallelism: 2 });
        rt.wait_all(&outs);
        rt.now() - t0
    });

    println!(
        "{}",
        summarize(&report.trace).with_capacities(capacity_lines(&caps))
    );
    let prof = profile(&report.trace, &caps);
    println!("{prof}");

    let mut t = Table::new(&["node", "hardware", "dominant bound"]);
    for (i, p) in prof.per_node_bounds.iter().enumerate() {
        t.row(vec![
            format!("node{i}"),
            if i < d3 {
                "d3.2xlarge (HDD)"
            } else {
                "i3.2xlarge (NVMe)"
            }
            .into(),
            p.dominant().name().into(),
        ]);
    }
    t.print();

    write_results(
        "hetero_sort",
        Json::obj()
            .set("figure", "hetero_sort")
            .set("cluster", format!("mixed_hdd_ssd({d3}, {i3})"))
            .set("data_bytes", data)
            .set("partitions", partitions)
            .set("store_capacity", store_capacity)
            .set("jct_s", jct.as_secs_f64())
            .set("spilled_bytes", report.metrics.store.spilled_bytes)
            .set("net_bytes", report.metrics.net_bytes)
            .set("profile", prof.to_json()),
    );
}

/// Fig8-shaped pipelined-shuffle training, but on a mixed cluster: one
/// g4dn.4xlarge trainer plus r6i.2xlarge feeder nodes.
fn hetero_ml() {
    let feeders = 2;
    let cluster = ClusterSpec::ml_loader(feeders);
    let caps = cluster.device_caps();
    let epochs = if quick_mode() { 3 } else { 10 };
    let dataset = DatasetSpec::new(if quick_mode() { 10_000 } else { 40_000 }, 16, 2023)
        .with_logical_sample_bytes(2000);

    println!(
        "\n# Heterogeneous ML loader — {} epochs, g4dn.4xlarge trainer + {}x r6i.2xlarge feeders\n",
        epochs, feeders
    );

    let mut cfg = RtConfig::new(cluster);
    exo_bench::obs::apply_policy(&mut cfg);
    cfg.trace = TraceConfig::on();
    let train_cfg = TrainConfig {
        dataset,
        epochs,
        batch_size: 128,
        lr: 0.5,
        variant: ShuffleVariant::Simple,
        window: ShuffleWindow::Full,
        gpu_ns_per_sample: 40_000.0,
    };
    let (report, out) = exo_bench::timed_run(cfg, |rt| exoshuffle_training(rt, &train_cfg));

    println!(
        "{}",
        summarize(&report.trace).with_capacities(capacity_lines(&caps))
    );
    let prof = profile(&report.trace, &caps);
    println!("{prof}");
    println!(
        "end-to-end: {:.1} s over {} epochs (final accuracy {:.3})",
        out.total_time.as_secs_f64(),
        epochs,
        out.accuracy.last().copied().unwrap_or(0.0)
    );

    write_results(
        "hetero_ml",
        Json::obj()
            .set("figure", "hetero_ml")
            .set("cluster", format!("ml_loader({feeders})"))
            .set("epochs", epochs)
            .set("total_s", out.total_time.as_secs_f64())
            .set(
                "final_accuracy",
                out.accuracy.last().copied().unwrap_or(0.0),
            )
            .set("profile", prof.to_json()),
    );
}
