//! Design-choice ablations called out in DESIGN.md §7: each toggles one
//! optimisation of the push shuffles and reports its cost on a 1 TB HDD
//! sort.
//!
//! - node-affinity merge placement (ES-push) — locality vs scattered
//!   merges;
//! - `wait` backpressure (ES-push*) — bounded rounds vs flooding the
//!   store;
//! - generator merges (ES-push*) — streamed vs monolithic merge outputs;
//! - eager ref release (ES-push*) — evict vs spill map outputs (the
//!   ES-push vs ES-push* write-amplification trade-off, §4.3.1).

use exo_bench::figure::{run, Case, Column, Figure, Scale};
use exo_bench::runs::run_es_sort_with;
use exo_bench::EsSortParams;
use exo_rt::trace::Json;
use exo_rt::{ObjectRef, RtHandle};
use exo_shuffle::{
    push_shuffle, push_star_shuffle, PushConfig, PushStarConfig, ShuffleJob, ShuffleVariant,
};
use exo_sim::NodeSpec;

/// One ablation's shuffle: a push variant with one option switched.
type Shuffle = fn(&RtHandle, &ShuffleJob) -> Vec<ObjectRef>;

fn main() {
    run("ablations", ablations);
}

fn ablations(scale: Scale) -> Figure {
    let quick = scale == Scale::Quick;
    let nodes = 10;
    let data: u64 = if quick {
        50_000_000_000
    } else {
        200_000_000_000
    };
    let parts = if quick { 100 } else { 200 };
    // The variant is unused: each case passes its own shuffle.
    let variant = ShuffleVariant::Push { factor: 8 };
    let p = EsSortParams::new(NodeSpec::d3_2xlarge(), nodes, data, parts, variant);
    let case = move |name: &'static str, shuffle: Shuffle| -> Case {
        Box::new(move || {
            let r = run_es_sort_with(p, shuffle);
            Json::obj()
                .set("configuration", name)
                .set("jct_s", r.jct.as_secs_f64())
                .set("net_gb", r.net as f64 / 1e9)
                .set("spilled_gb", r.spilled as f64 / 1e9)
        })
    };
    let cases = vec![
        case("ES-push (affinity on)", |rt, job| {
            push_shuffle(rt, job, PushConfig::new(8))
        }),
        case("ES-push (affinity OFF)", |rt, job| {
            let cfg = PushConfig {
                factor: 8,
                affinity: false,
            };
            push_shuffle(rt, job, cfg)
        }),
        case("ES-push* (all on)", |rt, job| {
            push_star_shuffle(rt, job, PushStarConfig::new(2))
        }),
        case("ES-push* (backpressure OFF)", |rt, job| {
            let cfg = PushStarConfig {
                backpressure: false,
                ..PushStarConfig::new(2)
            };
            push_star_shuffle(rt, job, cfg)
        }),
        case("ES-push* (generators OFF)", |rt, job| {
            let cfg = PushStarConfig {
                generators: false,
                ..PushStarConfig::new(2)
            };
            push_star_shuffle(rt, job, cfg)
        }),
        case("ES-push* (eager release OFF)", |rt, job| {
            let cfg = PushStarConfig {
                eager_release: false,
                ..PushStarConfig::new(2)
            };
            push_star_shuffle(rt, job, cfg)
        }),
    ];
    Figure::cases(
        vec![format!(
            "# Ablations — {} GB sort, 10× d3.2xlarge, {parts} partitions",
            data / 1_000_000_000
        )],
        Json::obj()
            .set("node", "d3_2xlarge")
            .set("nodes", nodes)
            .set("data_bytes", data)
            .set("partitions", parts),
        cases,
        vec![
            Column::text("configuration", "configuration"),
            Column::num("JCT (s)", "jct_s", 1.0, 0),
            Column::num("net (GB)", "net_gb", 1.0, 1),
            Column::num("spilled (GB)", "spilled_gb", 1.0, 1),
        ],
    )
}
