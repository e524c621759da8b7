//! Figure 4c: in-memory sort on 10 SSD nodes — ES-simple vs ES-push*
//! across partition counts.
//!
//! Expected shape (paper): when data fits in memory, ES-simple is 20–70%
//! *faster* at low partition counts (merging is pure overhead without a
//! disk bottleneck), and ES-push* wins back at 200+ partitions where
//! pipelining and fewer, larger transfers dominate. "The most performant
//! shuffle algorithm depends on data size, layout and hardware."

use exo_bench::figure::{run, Case, Column, Figure, Scale};
use exo_bench::runs::variant_name;
use exo_bench::{run_es_sort, sort_result_json, EsSortParams};
use exo_rt::trace::Json;
use exo_shuffle::ShuffleVariant;
use exo_sim::NodeSpec;

fn main() {
    run("fig4c", fig4c);
}

fn fig4c(scale: Scale) -> Figure {
    let quick = scale == Scale::Quick;
    let nodes = 10;
    // Fits comfortably in the aggregate object store (10 × 18 GiB).
    let data: u64 = if quick { 8_000_000_000 } else { 32_000_000_000 };
    let sweeps: &[usize] = if quick {
        &[80, 200]
    } else {
        &[80, 200, 400, 800]
    };
    let mut cases: Vec<Case> = Vec::new();
    for &parts in sweeps {
        for variant in [
            ShuffleVariant::Simple,
            ShuffleVariant::PushStar { map_parallelism: 4 },
        ] {
            let p = EsSortParams {
                in_memory: true,
                ..EsSortParams::new(NodeSpec::i3_2xlarge(), nodes, data, parts, variant)
            };
            cases.push(Box::new(move || {
                sort_result_json(&run_es_sort(p))
                    .set("partitions", parts)
                    .set("variant", variant_name(variant))
            }));
        }
    }
    Figure {
        header: vec![format!(
            "# Figure 4c — in-memory sort ({} GB), 10× i3.2xlarge",
            data / 1_000_000_000
        )],
        fields: Json::obj()
            .set("node", "i3_2xlarge")
            .set("nodes", nodes)
            .set("data_bytes", data)
            .set("in_memory", true),
        columns: vec![
            Column::text("partitions", "partitions"),
            Column::text("variant", "variant"),
            Column::num("JCT (s)", "jct_s", 1.0, 1),
            Column::num("spilled (GB)", "spilled_bytes", 1e9, 1),
            Column::num("net (GB)", "net_bytes", 1e9, 1),
        ],
        cases,
        footer: None,
    }
}
