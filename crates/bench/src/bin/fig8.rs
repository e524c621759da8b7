//! Figure 8: single-node ML training for 20 epochs — Exoshuffle-based
//! pipelined full shuffle vs a Petastorm-style buffered loader (§5.2.2).
//!
//! Expected shape (paper): the Exoshuffle pipeline is ~2.4× faster
//! end-to-end and converges to higher accuracy per epoch, because the
//! buffered loader both bottlenecks on single-process decode and limits
//! shuffling to a ~9% window of the (label-ordered) dataset.

use exo_bench::figure::{
    epoch_rows, epoch_table, full_shuffle_training, number, run, Figure, Scale, View,
};
use exo_bench::observed_run;
use exo_ml::{exoshuffle_training, petastorm_training, PetastormConfig};
use exo_rt::trace::Json;
use exo_rt::RtConfig;
use exo_sim::{ClusterSpec, NodeSpec};

fn main() {
    // `--mixed` swaps the single g4dn node for the heterogeneous
    // ML-loader cluster: a g4dn.4xlarge trainer plus r6i.2xlarge feeder
    // nodes, scheduled with per-node slot counts.
    let mixed = std::env::args().any(|a| a == "--mixed");
    run(if mixed { "fig8_mixed" } else { "fig8" }, |scale| {
        fig8(scale, mixed)
    });
}

fn fig8(scale: Scale, mixed: bool) -> Figure {
    let quick = scale == Scale::Quick;
    let epochs = if quick { 5 } else { 20 };
    let (node, cluster) = if mixed {
        ("ml_loader(2)", ClusterSpec::ml_loader(2))
    } else {
        (
            "g4dn_4xlarge",
            ClusterSpec::homogeneous(NodeSpec::g4dn_4xlarge(), 1),
        )
    };
    let rt_cfg = move || RtConfig::new(cluster.clone());
    let gpu_ns = 40_000.0; // 40 µs/sample on the T4
    let es_cfg = full_shuffle_training(if quick { 20_000 } else { 80_000 }, epochs, gpu_ns);
    let ps_cfg = PetastormConfig {
        dataset: es_cfg.dataset,
        epochs,
        batch_size: 128,
        lr: 0.5,
        buffer_fraction: 0.09, // the paper's OOM-avoiding window
        gpu_ns_per_sample: gpu_ns,
        decode_throughput: 20.0 * 1e6, // single-process Parquet decode
    };
    let results = move || {
        let (_, es) = observed_run(rt_cfg(), |rt| exoshuffle_training(rt, &es_cfg));
        let (_, ps) = observed_run(rt_cfg(), |rt| petastorm_training(rt, &ps_cfg));
        let ps = ps.expect("9% buffer fits");
        Json::obj()
            .set("node", node)
            .set("epochs", epochs)
            .set("exoshuffle_total_s", es.total_time.as_secs_f64())
            .set("petastorm_total_s", ps.total_time.as_secs_f64())
            .set("exoshuffle_epochs", epoch_rows(&es))
            .set("petastorm_epochs", epoch_rows(&ps))
    };
    Figure {
        header: vec![if mixed {
            format!(
                "# Figure 8 (mixed cluster) — {epochs} epochs, g4dn.4xlarge trainer + 2x r6i.2xlarge feeders"
            )
        } else {
            format!("# Figure 8 — single-node training, {epochs} epochs, g4dn.4xlarge")
        }],
        results: Box::new(results),
        views: vec![
            View::text(|doc| {
                let es = number(doc, "exoshuffle_total_s")?;
                let ps = number(doc, "petastorm_total_s")?;
                Some(format!(
                    "end-to-end: Exoshuffle {es:.1} s, Petastorm-style {ps:.1} s  ({:.2}x; paper: ~2.4x)",
                    ps / es
                ))
            }),
            epoch_table(("exoshuffle_epochs", "ES"), ("petastorm_epochs", "PS")),
        ],
    }
}
