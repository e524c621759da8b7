//! Figure 4d: 100 TB sort on 100 HDD nodes — ES-push* vs Spark (native)
//! vs Spark-push, Spark with compression on (it is unstable without it at
//! this scale, §5.1.4).
//!
//! Expected shape (paper): Spark-push beats native Spark by ~1.6×
//! (reduced random I/O); ES-push* beats Spark-push by ~1.8× because it
//! spills only the *merged* map outputs — the eager-release trick — while
//! Spark-push writes both the un-merged and the merged copies.

use exo_bench::figure::{number, run, Column, Figure, Scale};
use exo_bench::{run_es_sort, sort_result_json, EsSortParams};
use exo_monolith::{spark_sort, SparkConfig};
use exo_rt::trace::Json;
use exo_shuffle::ShuffleVariant;
use exo_sim::{ClusterSpec, NodeSpec};

fn main() {
    run("fig4d", fig4d);
}

fn fig4d(scale: Scale) -> Figure {
    let node = NodeSpec::d3_2xlarge();
    let nodes = 100;
    // Full scale: 100 TB with 2 GB partitions = 50 000 partitions. The
    // default run is 4 TB / 6000 partitions (~670 MB partitions, the
    // small-compressed-block regime of the full run) so it completes in
    // seconds of wall time; --full runs the 100 TB configuration.
    let (data, parts): (u64, usize) = scale.pick(
        (200_000_000_000, 100),
        (4_000_000_000_000, 6000),
        (100_000_000_000_000, 50_000),
    );
    let cluster = ClusterSpec::homogeneous(node, nodes);
    let theory = cluster.theoretical_sort_time(data);
    let size = if data % 1_000_000_000_000 == 0 {
        format!("{} TB", data / 1_000_000_000_000)
    } else {
        format!("{} GB", data / 1_000_000_000)
    };
    let es = EsSortParams::new(
        node,
        nodes,
        data,
        parts,
        ShuffleVariant::PushStar { map_parallelism: 4 },
    );
    let spark = |variant: &'static str, cfg: SparkConfig| {
        move || {
            let r = spark_sort(&cfg.with_compression(), data, parts, parts);
            Json::obj()
                .set("jct_s", r.jct.as_secs_f64())
                .set("disk_write_bytes", r.disk_write)
                .set("variant", variant)
        }
    };
    Figure {
        header: vec![
            format!("# Figure 4d — {size} sort, {nodes}× d3.2xlarge, {parts} partitions"),
            format!("theoretical baseline T=4D/B: {:.0} s", theory.as_secs_f64()),
        ],
        fields: Json::obj()
            .set("node", "d3_2xlarge")
            .set("nodes", nodes)
            .set("data_bytes", data)
            .set("partitions", parts)
            .set("theoretical_s", theory.as_secs_f64()),
        columns: vec![
            Column::text("system", "variant"),
            Column::num("JCT (s)", "jct_s", 1.0, 0),
            Column::num("disk write (TB)", "disk_write_bytes", 1e12, 2),
            Column::num("spilled (TB)", "spilled_bytes", 1e12, 2),
        ],
        cases: vec![
            Box::new(move || sort_result_json(&run_es_sort(es)).set("variant", "ES-push*")),
            Box::new(spark("Spark", SparkConfig::native(cluster.clone()))),
            Box::new(spark("Spark-push", SparkConfig::push(cluster))),
        ],
        footer: Some(|rows| {
            let jct = |i: usize| number(&rows[i], "jct_s").unwrap_or(f64::NAN);
            format!(
                "speedups: Spark/Spark-push = {:.2}x, Spark-push/ES-push* = {:.2}x",
                jct(1) / jct(2),
                jct(2) / jct(0),
            )
        }),
    }
}
