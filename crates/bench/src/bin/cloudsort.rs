//! CloudSort-style cost accounting: dollars per terabyte sorted, for each
//! shuffle variant and the Spark baselines. (The Exoshuffle architecture
//! set the 2022 CloudSort record; this reproduces the cost math on the
//! simulated runs.)

use exo_bench::figure::{run, Case, Column, Figure, Scale};
use exo_bench::runs::variant_name;
use exo_bench::{run_es_sort, sort_result_json, EsSortParams};
use exo_monolith::{spark_sort, SparkConfig};
use exo_rt::trace::Json;
use exo_shuffle::ShuffleVariant;
use exo_sim::{ClusterSpec, NodeSpec};
use exo_sort::{usd_per_tb, D3_2XLARGE};

fn main() {
    run("cloudsort", cloudsort);
}

fn cloudsort(scale: Scale) -> Figure {
    let quick = scale == Scale::Quick;
    let node = NodeSpec::d3_2xlarge();
    let nodes = 10;
    let data: u64 = if quick {
        50_000_000_000
    } else {
        200_000_000_000
    };
    let parts = if quick { 100 } else { 200 };
    let cluster = ClusterSpec::homogeneous(node, nodes);
    let mut cases: Vec<Case> = Vec::new();
    for variant in [
        ShuffleVariant::Simple,
        ShuffleVariant::Merge { factor: 8 },
        ShuffleVariant::Push { factor: 8 },
        ShuffleVariant::PushStar { map_parallelism: 4 },
    ] {
        let p = EsSortParams::new(node, nodes, data, parts, variant);
        cases.push(Box::new(move || {
            let r = run_es_sort(p);
            sort_result_json(&r)
                .set("variant", variant_name(variant))
                .set("usd_per_tb", usd_per_tb(D3_2XLARGE, nodes, r.jct, data))
        }));
    }
    for (variant, cfg) in [
        ("Spark", SparkConfig::native(cluster.clone())),
        ("Spark-push", SparkConfig::push(cluster)),
    ] {
        cases.push(Box::new(move || {
            let jct = spark_sort(&cfg, data, parts, parts).jct;
            Json::obj()
                .set("variant", variant)
                .set("jct_s", jct.as_secs_f64())
                .set("usd_per_tb", usd_per_tb(D3_2XLARGE, nodes, jct, data))
        }));
    }
    Figure {
        header: vec![format!(
            "# CloudSort cost — {} GB sort, {nodes}× {} @ ${}/h",
            data / 1_000_000_000,
            D3_2XLARGE.name,
            D3_2XLARGE.usd_per_hour
        )],
        fields: Json::obj()
            .set("node", "d3_2xlarge")
            .set("nodes", nodes)
            .set("data_bytes", data)
            .set("partitions", parts),
        columns: vec![
            Column::text("system", "variant"),
            Column::num("JCT (s)", "jct_s", 1.0, 0),
            Column::num("$ / TB", "usd_per_tb", 1.0, 3),
        ],
        cases,
        footer: None,
    }
}
