//! Figure 4a/4b (semi-shaded bars): fault-tolerance runs — a random
//! worker is killed 30 s into the job and restarted, and lineage
//! reconstruction recovers (§5.1.5).
//!
//! Expected shape (paper): recovering from a worker failure adds ~20–50 s
//! to the job completion time for the push variants.

use exo_bench::figure::{number, run, Case, Column, Figure, Scale};
use exo_bench::runs::variant_name;
use exo_bench::{run_es_sort, sort_result_json, without_trace, EsSortParams};
use exo_rt::trace::Json;
use exo_shuffle::ShuffleVariant;
use exo_sim::{NodeSpec, SimDuration, SimTime};

fn main() {
    run("fig4_ft", fig4_ft);
}

fn fig4_ft(scale: Scale) -> Figure {
    let quick = scale == Scale::Quick;
    let nodes = 10;
    let data: u64 = if quick {
        50_000_000_000
    } else {
        300_000_000_000
    };
    let parts = if quick { 100 } else { 200 };
    let mut cases: Vec<Case> = Vec::new();
    for variant in [
        ShuffleVariant::Push { factor: 8 },
        ShuffleVariant::PushStar { map_parallelism: 4 },
        ShuffleVariant::Simple,
        ShuffleVariant::Merge { factor: 8 },
    ] {
        let base = EsSortParams::new(NodeSpec::d3_2xlarge(), nodes, data, parts, variant);
        cases.push(Box::new(move || {
            // Clean baselines never claim `--trace`: the interesting run
            // to trace here is the one with the failure injected.
            let clean = without_trace(|| run_es_sort(base));
            // Kill mid-run: at 40% of the clean JCT (the paper's t=30 s
            // of a ~17-minute job scaled to our configuration).
            let kill_at = SimTime((clean.jct.as_micros() as f64 * 0.4) as u64);
            let failed = run_es_sort(EsSortParams {
                failure: Some((3, kill_at, SimDuration::from_secs(30))),
                ..base
            });
            Json::obj()
                .set("variant", variant_name(variant))
                .set("clean", sort_result_json(&clean))
                .set("failed", sort_result_json(&failed))
                .set("kill_at_s", kill_at.as_secs_f64())
        }));
    }
    Figure {
        header: vec![format!(
            "# Fault tolerance — {} GB sort on 10 HDD nodes, kill+restart a worker at t=30 s",
            data / 1_000_000_000
        )],
        fields: Json::obj()
            .set("node", "d3_2xlarge")
            .set("nodes", nodes)
            .set("data_bytes", data)
            .set("partitions", parts),
        columns: vec![
            Column::text("variant", "variant"),
            Column::num("JCT clean (s)", "clean.jct_s", 1.0, 0),
            Column::num("JCT w/ failure (s)", "failed.jct_s", 1.0, 0),
            Column::new("overhead (s)", |row| {
                let overhead = number(row, "failed.jct_s")? - number(row, "clean.jct_s")?;
                Some(format!("{overhead:.0}"))
            }),
            Column::text("re-exec tasks", "failed.tasks_reexecuted"),
        ],
        cases,
        footer: Some(|_| {
            "(the paper reports +20–50 s for ES-push/push*; ES-simple and -merge\n \
             could not recover in the paper due to a then-open Ray bug — our\n \
             runtime recovers all four variants)"
                .into()
        }),
    }
}
